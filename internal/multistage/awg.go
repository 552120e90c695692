package multistage

import (
	"fmt"

	"repro/internal/wdm"
)

// AWG-Clos routing (arXiv 1308.4477's passive-crosspoint construction,
// adapted to this repository's module geometry). The middle stage is
// built from arrayed-waveguide gratings: passive devices that neither
// convert wavelengths nor split light. Two consequences shape the
// router:
//
//  1. Wavelength law. The cyclic grating response fixes the wavelength
//     a connection from input module a to output module p must ride
//     through ANY middle to the class wavelength
//
//     λ(a, p) = (p - a) mod k,
//
//     on both the input-stage link a->j and the output-stage link j->p.
//     There is no wavelength choice to make — only a middle choice.
//
//  2. No middle multicast. A grating maps each (input, wavelength) to
//     exactly one output, so a middle serves exactly one destination
//     module per connection; a fanout over f destination modules costs
//     f distinct middles (hence x = r in AWGClosMinM).
//
// A request for which no middle has the class wavelength free on both
// hops is rejected with the stable wavelength_conflict code rather than
// the generic blocked class: the conflict is the AWG constraint at
// work, and clients distinguishing the two can respond differently
// (e.g. re-request under a different source slot).

// awgWave returns the class wavelength the passive middle stage forces
// for the (input module a, output module p) pair.
func (net *Network) awgWave(a, p int) wdm.Wavelength {
	k := net.params.K
	return wdm.Wavelength(((p-a)%k + k) % k)
}

// addAWG routes a connection under the AWG-Clos construction: one
// middle per destination module, each leg on its forced class
// wavelength. Called by Add with the admissibility checks done and the
// destinations grouped into scratch.
func (net *Network) addAWG(c wdm.Connection, srcMod int, srcLocal wdm.Port) (int, error) {
	sc := &net.scratch
	fanMods := sc.fanMods
	if len(fanMods) > net.params.X {
		net.blockedCount++
		return 0, &BlockedError{
			Detail: fmt.Sprintf("AWG-Clos: %d destination modules need %d middles, split limit x=%d",
				len(fanMods), len(fanMods), net.params.X),
			Report: net.blockReport("add", c, srcMod, anyWave, fanMods, 0),
		}
	}

	for i, p := range fanMods {
		w := net.awgWave(srcMod, p)
		found := net.awgMiddle(srcMod, p)
		if found < 0 {
			net.blockedCount++
			return 0, &BlockedError{
				Code: CodeWavelengthConflict,
				Detail: fmt.Sprintf("AWG-Clos: no middle with class wavelength λ%d free on both %d->mid and mid->%d (λ = (dest-src) mod k)",
					w, srcMod, p),
				Report: net.blockReport("add", c, srcMod, w, fanMods[i:], i),
			}
		}
		net.observeSelected(i, found, int(w), net.pickAWG(found, p))
	}

	id, err := net.commit(c, srcMod, srcLocal, anyWave)
	if err != nil {
		net.blockedCount++
		return 0, err
	}
	net.routedCount++
	return id, nil
}

// awgMiddle returns the first middle that can carry the leg from input
// module a to output module p, or -1: in service, not yet carrying a
// leg of this connection (scratch.picked), and free on the class
// wavelength on both hops.
func (net *Network) awgMiddle(a, p int) int {
	w := int(net.awgWave(a, p))
	in := net.inSet(a, w)
	for j := range net.midMods {
		if hasBit(net.failed, j) || hasBit(net.scratch.picked, j) {
			continue
		}
		if !hasBit(in, j) && !hasBit(net.outSet(j, w), p) {
			return j
		}
	}
	return -1
}

// pickAWG records middle j as serving output module p and returns its
// serve row.
func (net *Network) pickAWG(j, p int) []uint64 {
	row := net.serveRow(j)
	clear(row)
	setBit(row, p)
	setBit(net.scratch.picked, j)
	return row
}

// explainAWG runs addAWG's per-destination middle scan for Explain's
// dry run, past the first failure: one round per destination module,
// the class wavelength as the only candidate on both hops.
func (net *Network) explainAWG(ex *Explanation) {
	for j := range net.midMods {
		if hasBit(net.failed, j) {
			ex.Unavailable = append(ex.Unavailable, j)
		} else {
			ex.Available = append(ex.Available, j)
		}
	}
	clear(net.scratch.picked)
	for _, p := range ex.DestMods {
		found := -1
		if len(ex.Rounds) < net.params.X {
			found = net.awgMiddle(ex.SourceMod, p)
		}
		if found < 0 {
			ex.Residual = append(ex.Residual, p)
			continue
		}
		net.pickAWG(found, p)
		ex.Rounds = append(ex.Rounds, Candidate{Middle: found, Serves: []int{p}, Chosen: true})
	}
	ex.Routable = len(ex.Residual) == 0
}

// diagnoseAWGMiddle classifies middle module j for a blocked AWG-Clos
// request: for each uncovered destination module the class wavelength
// is the only candidate, busy on the input-stage hop, the output-stage
// hop, or neither (the middle could still serve it — a split-limit or
// own-leg reservation). md arrives with Middle set and the
// failed/selected cases already handled.
func (net *Network) diagnoseAWGMiddle(md MiddleDiag, srcMod int, uncovered []int) MiddleDiag {
	j := md.Middle
	inBusyAll := true
	for _, p := range uncovered {
		w := net.awgWave(srcMod, p)
		inBusy := net.inLink[srcMod][j][w] != freeLink
		outBusy := net.outLink[j][p][w] != freeLink
		if inBusy {
			md.WavesTried = append(md.WavesTried, int(w))
		}
		if !inBusy && !outBusy {
			md.Serves = append(md.Serves, p)
			inBusyAll = false
			continue
		}
		if outBusy {
			md.BlockedOut = append(md.BlockedOut, OutLinkDiag{OutModule: p, BusyWaves: []int{int(w)}})
		}
		if !inBusy {
			inBusyAll = false
		}
	}
	switch {
	case len(md.Serves) > 0:
		md.State = MiddleSplitLimit
	case inBusyAll && len(uncovered) > 0:
		md.State = MiddleInLinkBusy
	default:
		md.State = MiddleOutLinkBusy
	}
	return md
}
