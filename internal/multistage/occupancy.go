package multistage

import "repro/internal/wdm"

// Link occupancy as bitsets. For every (input module a, wavelength w)
// inBusy holds the set of middles j whose link a->j carries w; for
// every (middle j, wavelength w) outBusy holds the set of output
// modules p whose link j->p carries w. Both are flat []uint64 arrays
// of fixed-width sets, so the router's questions are word operations:
// the middles a source can reach are ^failed minus the busy sets of its
// input module, and a candidate middle's blocked output modules are its
// busy set on the pinned wavelength (or the intersection over all k).

// inSet is the set of middles whose link from input module a carries w.
func (net *Network) inSet(a, w int) []uint64 {
	i := (a*net.params.K + w) * net.midWords
	return net.inBusy[i : i+net.midWords : i+net.midWords]
}

// outSet is the set of output modules whose link from middle j carries w.
func (net *Network) outSet(j, w int) []uint64 {
	i := (j*net.params.K + w) * net.modWords
	return net.outBusy[i : i+net.modWords : i+net.modWords]
}

// claimIn and claimOut occupy one link wavelength for connection id;
// freeIn and freeOut release it. They keep the id tables, the bitsets
// and the per-plane usage counters in step.
func (net *Network) claimIn(a, j int, w wdm.Wavelength, id int) {
	net.inLink[a][j][w] = id
	setBit(net.inSet(a, int(w)), j)
	net.waveUse[w]++
}

func (net *Network) claimOut(j, p int, w wdm.Wavelength, id int) {
	net.outLink[j][p][w] = id
	setBit(net.outSet(j, int(w)), p)
	net.waveUse[w]++
}

func (net *Network) freeIn(a, j int, w wdm.Wavelength) {
	net.inLink[a][j][w] = freeLink
	clearBit(net.inSet(a, int(w)), j)
	net.waveUse[w]--
}

func (net *Network) freeOut(j, p int, w wdm.Wavelength) {
	net.outLink[j][p][w] = freeLink
	clearBit(net.outSet(j, int(w)), p)
	net.waveUse[w]--
}

// availableMiddles fills dst with the middle modules whose link from
// input module a can still carry a new connection entering on srcWave
// (Section 3.1).
func (net *Network) availableMiddles(dst []uint64, a int, srcWave wdm.Wavelength) {
	for i := range dst {
		dst[i] = ^net.failed[i]
	}
	if tail := len(net.midMods) % 64; tail != 0 {
		dst[len(dst)-1] &= 1<<tail - 1
	}
	k := net.params.K
	switch {
	case net.params.Construction == MSWDominant:
		// First two stages cannot retune: the connection's own
		// wavelength must be free on the link.
		for i, v := range net.inSet(a, int(srcWave)) {
			dst[i] &^= v
		}
	case net.params.ConservativeLinks:
		// Set-semantics ablation: a touched link is off limits.
		for w := 0; w < k; w++ {
			for i, v := range net.inSet(a, w) {
				dst[i] &^= v
			}
		}
	default:
		// MAW-dominant: any free wavelength will do, so only links
		// busy on all k wavelengths are out.
		for i := range dst {
			full := ^uint64(0)
			for w := 0; w < k; w++ {
				full &= net.inSet(a, w)[i]
			}
			dst[i] &^= full
		}
	}
}

// blockedSet returns the set of output modules middle j cannot reach
// for a connection whose last hop must carry needWave; needWave == -1
// means any free wavelength on the link suffices (the multiset
// multiplicity-k test of Eq. 4). The result is dst or an occupancy
// bitset itself, so callers must not modify it.
func (net *Network) blockedSet(dst []uint64, j int, needWave wdm.Wavelength) []uint64 {
	k := net.params.K
	if net.params.ConservativeLinks && net.params.Construction == MAWDominant {
		// A link with any wavelength taken is refused.
		copy(dst, net.outSet(j, 0))
		for w := 1; w < k; w++ {
			for i, v := range net.outSet(j, w) {
				dst[i] |= v
			}
		}
		return dst
	}
	if needWave >= 0 {
		return net.outSet(j, int(needWave))
	}
	copy(dst, net.outSet(j, 0))
	for w := 1; w < k; w++ {
		for i, v := range net.outSet(j, w) {
			dst[i] &= v
		}
	}
	return dst
}

// scratch holds the routing state of one Add, Explain or reinstall
// call. Every buffer is sized at New and reused, so routing a request
// allocates nothing per candidate middle.
type scratch struct {
	destsByMod [][]wdm.PortWave // [r]: the request's local slots per output module
	fanMods    []int            // the request's output modules, ascending
	avail      []uint64         // candidate middles not yet chosen
	residual   []uint64         // output modules not yet covered
	blocked    []uint64         // one middle's blocked set (see blockedSet)
	picked     []uint64         // middles chosen
	order      []int            // middles chosen, in selection order
	serve      []uint64         // per middle: the output modules it serves once chosen
	dests      []wdm.PortWave   // sub-connection destination buffer
}

func newScratch(n, r, m int) scratch {
	mw, rw := wordsFor(m), wordsFor(r)
	slots := make([]wdm.PortWave, r*n)
	sc := scratch{
		destsByMod: make([][]wdm.PortWave, r),
		fanMods:    make([]int, 0, r),
		avail:      make([]uint64, mw),
		residual:   make([]uint64, rw),
		blocked:    make([]uint64, rw),
		picked:     make([]uint64, mw),
		order:      make([]int, 0, m),
		serve:      make([]uint64, m*rw),
		dests:      make([]wdm.PortWave, 0, max(m, r)),
	}
	for p := range sc.destsByMod {
		sc.destsByMod[p] = slots[p*n : p*n : (p+1)*n]
	}
	return sc
}

// serveRow is the set of output modules chosen middle j serves.
func (net *Network) serveRow(j int) []uint64 {
	i := j * net.modWords
	return net.scratch.serve[i : i+net.modWords : i+net.modWords]
}

// groupDests splits a normalized connection's destinations by output
// module into scratch.destsByMod, listing the modules in fanMods.
func (net *Network) groupDests(c wdm.Connection) {
	sc := &net.scratch
	sc.fanMods = sc.fanMods[:0]
	for _, d := range c.Dests {
		p, local := net.splitPort(d.Port)
		if n := len(sc.fanMods); n == 0 || sc.fanMods[n-1] != p {
			sc.fanMods = append(sc.fanMods, p)
			sc.destsByMod[p] = sc.destsByMod[p][:0]
		}
		sc.destsByMod[p] = append(sc.destsByMod[p], wdm.PortWave{Port: local, Wave: d.Wave})
	}
}
