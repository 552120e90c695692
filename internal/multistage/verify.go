package multistage

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// Verify validates the network end to end:
//
//  1. every module optically verifies its own live sub-connections
//     (signals propagate through the module's element graph and arrive
//     exactly at the intended slots) — unless the network was built Lite;
//  2. the cross-stage linkage of every network connection is consistent:
//     the input module emits to exactly the (middle module, wavelength)
//     pairs the middle modules receive on, the middle modules emit to
//     exactly the (output module, wavelength) pairs the output modules
//     receive on, and the output modules deliver exactly the network
//     connection's destination slots;
//  3. the link-occupancy tables agree with the per-module slot state.
//
// Together these demonstrate that every live multicast is carried as real
// signal paths through three stages of real switch hardware.
func (net *Network) Verify() error {
	if !net.params.Lite {
		for a, m := range net.inMods {
			if _, err := m.Verify(); err != nil {
				return fmt.Errorf("input module %d: %w", a, err)
			}
		}
		for j, m := range net.midMods {
			switch mod := m.(type) {
			case interface {
				Verify() (*fabric.Result, error)
			}: // a crossbar module
				if _, err := mod.Verify(); err != nil {
					return fmt.Errorf("middle module %d: %w", j, err)
				}
			case *Network: // a nested network: full recursive verification
				if err := mod.Verify(); err != nil {
					return fmt.Errorf("nested middle module %d: %w", j, err)
				}
			}
		}
		for p, m := range net.outMods {
			if _, err := m.Verify(); err != nil {
				return fmt.Errorf("output module %d: %w", p, err)
			}
		}
	}
	for id, rc := range net.conns {
		if err := net.verifyLinkage(id, rc); err != nil {
			return err
		}
	}
	return net.verifyLinkTables()
}

// verifyLinkage checks the stage-to-stage consistency of one connection.
func (net *Network) verifyLinkage(id int, rc *routed) error {
	// Input module sub-connection: source is the network source's local
	// slot; destinations are one (middle, wavelength) pair per leg.
	inConn, ok := net.inMods[rc.srcMod].Connection(rc.inConnID)
	if !ok {
		return fmt.Errorf("multistage: connection %d: input module %d lost sub-connection", id, rc.srcMod)
	}
	_, wantLocal := net.splitPort(rc.conn.Source.Port)
	if inConn.Source.Port != wantLocal || inConn.Source.Wave != rc.conn.Source.Wave {
		return fmt.Errorf("multistage: connection %d: input sub-connection source %v != network source %v",
			id, inConn.Source, rc.conn.Source)
	}
	if len(inConn.Dests) != len(rc.legs) {
		return fmt.Errorf("multistage: connection %d: input module emits to %d middles, routing says %d",
			id, len(inConn.Dests), len(rc.legs))
	}
	for _, d := range inConn.Dests {
		w, ok := rc.legWave(int(d.Port))
		if !ok || w != d.Wave {
			return fmt.Errorf("multistage: connection %d: input module emits %v, not in routing plan", id, d)
		}
	}

	// Middle modules: source = (input module, leg wavelength); dests
	// must match hops.
	for _, l := range rc.legs {
		mc, ok := net.midMods[l.Middle].Connection(l.cid)
		if !ok {
			return fmt.Errorf("multistage: connection %d: middle module %d lost sub-connection", id, l.Middle)
		}
		if int(mc.Source.Port) != rc.srcMod || mc.Source.Wave != l.Wave {
			return fmt.Errorf("multistage: connection %d: middle %d receives on %v, input stage sends on (p%d,λ%d)",
				id, l.Middle, mc.Source, rc.srcMod, l.Wave)
		}
		for _, d := range mc.Dests {
			w, ok := rc.hopWave(l.Middle, int(d.Port))
			if !ok || w != d.Wave {
				return fmt.Errorf("multistage: connection %d: middle %d emits %v, not in routing plan", id, l.Middle, d)
			}
		}
	}

	// Output modules: delivered local slots must reassemble exactly the
	// network destination set.
	delivered := make(map[wdm.PortWave]bool)
	for _, hp := range rc.hops {
		p := hp.Out
		oc, ok := net.outMods[p].Connection(hp.cid)
		if !ok {
			return fmt.Errorf("multistage: connection %d: output module %d lost sub-connection", id, p)
		}
		w, ok := rc.hopWave(int(oc.Source.Port), p)
		if !ok || w != oc.Source.Wave {
			return fmt.Errorf("multistage: connection %d: output module %d receives on %v, not in routing plan",
				id, p, oc.Source)
		}
		for _, d := range oc.Dests {
			global := wdm.PortWave{Port: wdm.Port(p*net.nPorts) + d.Port, Wave: d.Wave}
			delivered[global] = true
		}
	}
	if len(delivered) != len(rc.conn.Dests) {
		return fmt.Errorf("multistage: connection %d: delivers %d slots, wants %d", id, len(delivered), len(rc.conn.Dests))
	}
	for _, d := range rc.conn.Dests {
		if !delivered[d] {
			return fmt.Errorf("multistage: connection %d: destination %v never delivered", id, d)
		}
	}
	return nil
}

// legWave returns the wavelength the route claims on the link to
// middle j.
func (rc *routed) legWave(j int) (wdm.Wavelength, bool) {
	for _, l := range rc.legs {
		if l.Middle == j {
			return l.Wave, true
		}
	}
	return 0, false
}

// hopWave returns the wavelength the route claims on the link j->p.
func (rc *routed) hopWave(j, p int) (wdm.Wavelength, bool) {
	for _, hp := range rc.hops {
		if hp.Middle == j && hp.Out == p {
			return hp.Wave, true
		}
	}
	return 0, false
}

// verifyLinkTables cross-checks the link occupancy tables against the
// per-connection routing records, and the router's bitsets against the
// tables: a link wavelength's busy bit is set exactly when the table
// names an owner.
func (net *Network) verifyLinkTables() error {
	wantIn := make(map[[3]int]int)  // (a, j, w) -> conn id
	wantOut := make(map[[3]int]int) // (j, p, w) -> conn id
	for id, rc := range net.conns {
		for _, l := range rc.legs {
			wantIn[[3]int{rc.srcMod, l.Middle, int(l.Wave)}] = id
		}
		for _, hp := range rc.hops {
			wantOut[[3]int{hp.Middle, hp.Out, int(hp.Wave)}] = id
		}
	}
	for a := range net.inLink {
		for j := range net.inLink[a] {
			for w, got := range net.inLink[a][j] {
				want, used := wantIn[[3]int{a, j, w}]
				if used && got != want {
					return fmt.Errorf("multistage: link in%d->mid%d λ%d holds %d, want %d", a, j, w, got, want)
				}
				if !used && got != freeLink {
					return fmt.Errorf("multistage: link in%d->mid%d λ%d leaked (holds %d)", a, j, w, got)
				}
				if bit := hasBit(net.inSet(a, w), j); bit != used {
					return fmt.Errorf("multistage: link in%d->mid%d λ%d busy bit %v, table says %v", a, j, w, bit, used)
				}
			}
		}
	}
	for j := range net.outLink {
		for p := range net.outLink[j] {
			for w, got := range net.outLink[j][p] {
				want, used := wantOut[[3]int{j, p, w}]
				if used && got != want {
					return fmt.Errorf("multistage: link mid%d->out%d λ%d holds %d, want %d", j, p, w, got, want)
				}
				if !used && got != freeLink {
					return fmt.Errorf("multistage: link mid%d->out%d λ%d leaked (holds %d)", j, p, w, got)
				}
				if bit := hasBit(net.outSet(j, w), p); bit != used {
					return fmt.Errorf("multistage: link mid%d->out%d λ%d busy bit %v, table says %v", j, p, w, bit, used)
				}
			}
		}
	}
	return nil
}

// IsBlocked reports whether an Add error means "blocked" (admissible but
// unroutable) rather than "inadmissible request".
func IsBlocked(err error) bool { return errors.Is(err, ErrBlocked) }
