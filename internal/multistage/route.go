package multistage

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/wdm"
)

// ErrBlocked is wrapped by Add when a connection is admissible but cannot
// be routed with the configured split limit — i.e. the network blocked.
// With m at or above the theorem bound this must never happen; the
// simulation experiments assert exactly that.
var ErrBlocked = errors.New("multistage: connection blocked")

// Add routes a multicast connection through the three stages using the
// paper's routing strategy: the connection may use at most X middle-stage
// modules (Lemma 4 / Corollary 1). Middle modules are chosen greedily by
// minimum residual intersection with their destination (multi)sets — the
// selection order used in the proofs of Lemma 5 and the results of [14].
//
// Add returns an error wrapping ErrBlocked if no admissible choice of at
// most X middle modules covers the destination set; other errors indicate
// an inadmissible request (model violation or busy slot).
func (net *Network) Add(c wdm.Connection) (int, error) {
	sh := net.Shape()
	if err := sh.CheckConnection(net.params.Model, c); err != nil {
		return 0, err
	}
	if net.srcBusy.Has(c.Source) {
		return 0, fmt.Errorf("multistage: source slot %v already used by connection %d", c.Source, net.holder(c.Source, true))
	}
	for _, d := range c.Dests {
		if net.dstBusy.Has(d) {
			return 0, fmt.Errorf("multistage: destination slot %v already used by connection %d", d, net.holder(d, false))
		}
	}
	c = c.Normalize()

	srcMod, srcLocal := net.splitPort(c.Source.Port)
	srcWave := c.Source.Wave
	net.groupDests(c)
	sc := &net.scratch
	clear(sc.picked)

	if net.params.Construction == AWGClos {
		// The passive middle stage fixes every wavelength; the greedy
		// cover below does not apply (one middle per destination module).
		return net.addAWG(c, srcMod, srcLocal)
	}

	// lastHopWave returns the wavelength the link j->p must carry for
	// output module p, or -1 if any free wavelength works:
	//   - MSW-dominant first two stages never retune: always srcWave;
	//   - MSW output modules cannot retune either, so the arrival must
	//     already be on the destination wavelength (network model MSW
	//     implies that wavelength is srcWave);
	//   - MSDW/MAW output modules have converters, so under MAW-dominant
	//     any free wavelength works.
	lastHopWave := anyWave
	if net.params.Construction == MSWDominant || net.params.Model == wdm.MSW {
		lastHopWave = srcWave
	}

	// Available middle modules for this source (Section 3.1): those whose
	// input-stage link can still carry the connection.
	net.availableMiddles(sc.avail, srcMod, srcWave)
	if isEmpty(sc.avail) {
		net.observeNoAvail(int(srcWave))
		net.blockedCount++
		return 0, &BlockedError{
			Detail: fmt.Sprintf("no available middle module from input module %d on λ%d (x=%d)",
				srcMod, srcWave, net.params.X),
			Report: net.blockReport("add", c, srcMod, lastHopWave, sc.fanMods, 0),
		}
	}

	clear(sc.residual)
	for _, p := range sc.fanMods {
		setBit(sc.residual, p)
	}
	net.selectMiddles(lastHopWave)
	for round, j := range sc.order {
		net.observeSelected(round, j, int(srcWave), net.serveRow(j))
	}
	if used := len(sc.order); !isEmpty(sc.residual) {
		net.observeLoopBlocked(used, sc.avail, sc.residual, int(lastHopWave))
		net.blockedCount++
		residual := members(sc.residual)
		return 0, &BlockedError{
			Detail: fmt.Sprintf("%d destination module(s) uncovered after %d of %d splits (source %v)",
				len(residual), used, net.params.X, c.Source),
			Report: net.blockReport("add", c, srcMod, lastHopWave, residual, used),
		}
	}

	id, err := net.commit(c, srcMod, srcLocal, lastHopWave)
	if err != nil {
		net.blockedCount++
		return 0, err
	}
	net.routedCount++
	return id, nil
}

// anyWave as a wavelength constraint means any free wavelength will do.
const anyWave = wdm.Wavelength(-1)

// selectMiddles covers the output modules in scratch.residual with at
// most X middles from scratch.avail (Lemma 4, with the multiset
// semantics of Eqs. 2-5 when links carry k wavelengths). The certified
// strategy picks, each round, the first candidate whose blocked set
// leaves the smallest residual; FirstFit takes the first candidate that
// covers anything. Each pick lands in order, picked and its serve row;
// residual is left holding what stays uncovered and avail the
// candidates not picked.
func (net *Network) selectMiddles(lastHopWave wdm.Wavelength) {
	sc := &net.scratch
	sc.order = sc.order[:0]
	clear(sc.picked)
	left := popCount(sc.residual)
	for left > 0 && len(sc.order) < net.params.X && !isEmpty(sc.avail) {
		best, bestBlocked := -1, 0
		for j := nextBit(sc.avail, 0); j >= 0; j = nextBit(sc.avail, j+1) {
			nb := countAnd(sc.residual, net.blockedSet(sc.blocked, j, lastHopWave))
			if net.params.Strategy == FirstFit {
				if nb < left {
					best, bestBlocked = j, nb
					break
				}
				continue
			}
			if best == -1 || nb < bestBlocked {
				best, bestBlocked = j, nb
				if nb == 0 {
					break // nothing later can beat a full cover
				}
			}
		}
		if best == -1 || bestBlocked == left {
			break // no available module makes progress
		}
		row, blocked := net.serveRow(best), net.blockedSet(sc.blocked, best, lastHopWave)
		for i := range row {
			row[i] = sc.residual[i] &^ blocked[i]
			sc.residual[i] &= blocked[i]
		}
		clearBit(sc.avail, best)
		setBit(sc.picked, best)
		sc.order = append(sc.order, best)
		left = bestBlocked
	}
}

// pickWave chooses the wavelength a link claim takes: need when it is
// pinned (>= 0) and free, otherwise a free wavelength chosen by the
// wavelength-assignment policy.
func (net *Network) pickWave(link []int, need wdm.Wavelength) (wdm.Wavelength, bool) {
	if need >= 0 {
		return need, link[need] == freeLink
	}
	return net.pickFreeWave(link)
}

// pickFreeWave selects a free wavelength on the link according to the
// configured wavelength-assignment policy.
func (net *Network) pickFreeWave(link []int) (wdm.Wavelength, bool) {
	best, found := -1, false
	for w, v := range link {
		if v != freeLink {
			continue
		}
		if !found {
			best, found = w, true
			continue
		}
		switch net.params.WavePick {
		case MostUsed:
			if net.waveUse[w] > net.waveUse[best] {
				best = w
			}
		case LeastUsed:
			if net.waveUse[w] < net.waveUse[best] {
				best = w
			}
		default: // FirstFree keeps the lowest index
		}
	}
	return wdm.Wavelength(best), found
}

// commit materializes the chosen routing in scratch (picked middles and
// their serve rows): it occupies link wavelengths and installs the
// per-module sub-connections, rolling back on any internal
// inconsistency. Links are claimed middle by middle in ascending order,
// each middle's output links in ascending order, so the wavelength
// policies see a deterministic sequence.
func (net *Network) commit(c wdm.Connection, srcMod int, srcLocal wdm.Port, lastHopWave wdm.Wavelength) (int, error) {
	sc := &net.scratch
	nHops := 0
	for j := nextBit(sc.picked, 0); j >= 0; j = nextBit(sc.picked, j+1) {
		nHops += popCount(net.serveRow(j))
	}
	rc := &routed{
		conn:     c,
		srcMod:   srcMod,
		inConnID: -1,
		legs:     make([]routeLeg, 0, popCount(sc.picked)),
		hops:     make([]routeHop, 0, nHops),
	}
	id := net.nextID

	awg := net.params.Construction == AWGClos
	for j := nextBit(sc.picked, 0); j >= 0; j = nextBit(sc.picked, j+1) {
		row := net.serveRow(j)
		need := anyWave
		switch {
		case net.params.Construction == MSWDominant:
			need = c.Source.Wave
		case awg:
			// The grating pins the leg to the class wavelength of the
			// one output module this middle serves.
			need = net.awgWave(srcMod, nextBit(row, 0))
		}
		w, ok := net.pickWave(net.inLink[srcMod][j], need)
		if !ok {
			net.unwind(rc)
			return 0, fmt.Errorf("multistage: internal error: link %d->mid%d has no free wavelength (want λ%d)", srcMod, j, need)
		}
		net.claimIn(srcMod, j, w, id)
		rc.legs = append(rc.legs, routeLeg{RouteLeg{Middle: j, Wave: w}, -1})
		for p := nextBit(row, 0); p >= 0; p = nextBit(row, p+1) {
			need := lastHopWave
			if awg {
				need = net.awgWave(srcMod, p)
			}
			ow, ok := net.pickWave(net.outLink[j][p], need)
			if !ok {
				net.unwind(rc)
				return 0, fmt.Errorf("multistage: internal error: link mid%d->%d has no free wavelength (want λ%d)", j, p, need)
			}
			net.claimOut(j, p, ow, id)
			rc.hops = append(rc.hops, routeHop{RouteHop{Middle: j, Out: p, Wave: ow}, -1})
		}
	}
	if err := net.install(rc, srcLocal, "multistage: internal error"); err != nil {
		return 0, err
	}
	net.nextID++
	net.register(id, rc)
	return id, nil
}

// install adds the module sub-connections that carry a route whose
// links are already claimed: one in the input module fanning out to
// every leg's middle, one per middle fanning out to its hops' output
// modules, and one per hop delivering that output module's local
// destination slots (scratch.destsByMod). On failure it unwinds
// everything rc holds, link claims included.
func (net *Network) install(rc *routed, srcLocal wdm.Port, errPrefix string) error {
	sc := &net.scratch
	in := wdm.Connection{Source: wdm.PortWave{Port: srcLocal, Wave: rc.conn.Source.Wave}, Dests: sc.dests[:0]}
	for _, l := range rc.legs {
		in.Dests = append(in.Dests, wdm.PortWave{Port: wdm.Port(l.Middle), Wave: l.Wave})
	}
	cid, err := net.inMods[rc.srcMod].Add(in)
	if err != nil {
		net.unwind(rc)
		return fmt.Errorf("%s: input module %d rejected %v: %w", errPrefix, rc.srcMod, in, err)
	}
	rc.inConnID = cid

	h := 0
	for i := range rc.legs {
		l := &rc.legs[i]
		mc := wdm.Connection{Source: wdm.PortWave{Port: wdm.Port(rc.srcMod), Wave: l.Wave}, Dests: sc.dests[:0]}
		for ; h < len(rc.hops) && rc.hops[h].Middle == l.Middle; h++ {
			mc.Dests = append(mc.Dests, wdm.PortWave{Port: wdm.Port(rc.hops[h].Out), Wave: rc.hops[h].Wave})
		}
		cid, err := net.midMods[l.Middle].Add(mc)
		if err != nil {
			net.unwind(rc)
			return fmt.Errorf("%s: middle module %d rejected %v: %w", errPrefix, l.Middle, mc, err)
		}
		l.cid = cid
	}

	for i := range rc.hops {
		hp := &rc.hops[i]
		oc := wdm.Connection{
			Source: wdm.PortWave{Port: wdm.Port(hp.Middle), Wave: hp.Wave},
			Dests:  sc.destsByMod[hp.Out],
		}
		cid, err := net.outMods[hp.Out].Add(oc)
		if err != nil {
			net.unwind(rc)
			return fmt.Errorf("%s: output module %d rejected %v: %w", errPrefix, hp.Out, oc, err)
		}
		hp.cid = cid
	}
	return nil
}

// unwind releases everything a partly installed route holds — module
// sub-connections and link claims — and resets its sub-connection ids.
func (net *Network) unwind(rc *routed) {
	if rc.inConnID >= 0 {
		_ = net.inMods[rc.srcMod].Release(rc.inConnID)
		rc.inConnID = -1
	}
	for i := range rc.legs {
		if l := &rc.legs[i]; l.cid >= 0 {
			_ = net.midMods[l.Middle].Release(l.cid)
			l.cid = -1
		}
	}
	for i := range rc.hops {
		if hp := &rc.hops[i]; hp.cid >= 0 {
			_ = net.outMods[hp.Out].Release(hp.cid)
			hp.cid = -1
		}
	}
	net.freeLinks(rc)
}

// freeLinks releases every link wavelength the route claims.
func (net *Network) freeLinks(rc *routed) {
	for _, l := range rc.legs {
		net.freeIn(rc.srcMod, l.Middle, l.Wave)
	}
	for _, hp := range rc.hops {
		net.freeOut(hp.Middle, hp.Out, hp.Wave)
	}
}

// register makes an installed route live under id.
func (net *Network) register(id int, rc *routed) {
	net.conns[id] = rc
	net.srcBusy.Add(rc.conn.Source)
	for _, d := range rc.conn.Dests {
		net.dstBusy.Add(d)
	}
}

// holder returns the id of the live connection using slot as its
// source (src) or as a destination, or -1. Only error messages need it:
// the busy sets say whether a slot is held, not by whom.
func (net *Network) holder(slot wdm.PortWave, src bool) int {
	for id, rc := range net.conns {
		if src && rc.conn.Source == slot || !src && slices.Contains(rc.conn.Dests, slot) {
			return id
		}
	}
	return -1
}

// Release tears down a live connection and frees every module slot and
// link wavelength it occupied.
func (net *Network) Release(id int) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("multistage: no connection with id %d", id)
	}
	if err := net.inMods[rc.srcMod].Release(rc.inConnID); err != nil {
		return fmt.Errorf("multistage: input module %d: %w", rc.srcMod, err)
	}
	for _, l := range rc.legs {
		if err := net.midMods[l.Middle].Release(l.cid); err != nil {
			return fmt.Errorf("multistage: middle module %d: %w", l.Middle, err)
		}
	}
	for _, hp := range rc.hops {
		if err := net.outMods[hp.Out].Release(hp.cid); err != nil {
			return fmt.Errorf("multistage: output module %d: %w", hp.Out, err)
		}
	}
	net.freeLinks(rc)
	delete(net.conns, id)
	net.srcBusy.Remove(rc.conn.Source)
	for _, d := range rc.conn.Dests {
		net.dstBusy.Remove(d)
	}
	return nil
}

// Reset releases every live connection.
func (net *Network) Reset() {
	ids := make([]int, 0, len(net.conns))
	for id := range net.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := net.Release(id); err != nil {
			panic("multistage: Reset lost track of connection: " + err.Error())
		}
	}
}

// AddAssignment routes all connections of an assignment, rolling back on
// the first failure.
func (net *Network) AddAssignment(a wdm.Assignment) ([]int, error) {
	ids := make([]int, 0, len(a))
	for i, c := range a {
		id, err := net.Add(c)
		if err != nil {
			for _, rid := range ids {
				_ = net.Release(rid)
			}
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}
