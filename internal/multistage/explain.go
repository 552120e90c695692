package multistage

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/wdm"
)

// Candidate records how one available middle module looked to the
// selection loop for a particular request.
type Candidate struct {
	Middle  int
	Blocked []int // requested output modules this middle cannot reach
	Serves  []int // modules it was assigned (empty if not chosen)
	Chosen  bool
}

// Explanation is a dry-run account of how a request would route: which
// middle modules were available, what each one's destination
// (multi)set blocked, and which were selected in what order — the
// observable form of Lemma 4's condition. Explanations never mutate the
// network.
type Explanation struct {
	Request     wdm.Connection
	SourceMod   int
	DestMods    []int
	LastHopWave wdm.Wavelength // -1 = any free wavelength acceptable
	Available   []int
	Unavailable []int // middles with no usable input-stage link
	Rounds      []Candidate
	Routable    bool
	Residual    []int // uncovered modules when not routable
}

// Explain dry-runs the routing decision for an admissible request
// against the current network state. The request is not installed. It
// returns an error only for inadmissible requests (model violation or
// busy slots); a blocked request yields Routable=false with the
// uncovered modules listed.
func (net *Network) Explain(c wdm.Connection) (*Explanation, error) {
	if err := net.Shape().CheckConnection(net.params.Model, c); err != nil {
		return nil, err
	}
	if net.srcBusy.Has(c.Source) {
		return nil, fmt.Errorf("multistage: source slot %v already used by connection %d", c.Source, net.holder(c.Source, true))
	}
	for _, d := range c.Dests {
		if net.dstBusy.Has(d) {
			return nil, fmt.Errorf("multistage: destination slot %v already used by connection %d", d, net.holder(d, false))
		}
	}
	c = c.Normalize()
	srcMod, _ := net.splitPort(c.Source.Port)

	destMods := map[int]bool{}
	for _, d := range c.Dests {
		p, _ := net.splitPort(d.Port)
		destMods[p] = true
	}
	ex := &Explanation{
		Request:     c,
		SourceMod:   srcMod,
		LastHopWave: -1,
	}
	for p := range destMods {
		ex.DestMods = append(ex.DestMods, p)
	}
	sort.Ints(ex.DestMods)
	if net.params.Construction == MSWDominant || net.params.Model == wdm.MSW {
		ex.LastHopWave = c.Source.Wave
	}
	if net.params.Construction == AWGClos {
		net.explainAWG(ex)
		return ex, nil
	}

	sc := &net.scratch
	net.availableMiddles(sc.avail, srcMod, c.Source.Wave)
	ex.Available = members(sc.avail)
	for j := range net.midMods {
		if !hasBit(sc.avail, j) {
			ex.Unavailable = append(ex.Unavailable, j)
		}
	}

	// Run Add's selection loop, then replay its picks to record what
	// each chosen middle found blocked in its round.
	clear(sc.residual)
	for _, p := range ex.DestMods {
		setBit(sc.residual, p)
	}
	left := slices.Clone(sc.residual)
	net.selectMiddles(ex.LastHopWave)
	for _, j := range sc.order {
		row := net.serveRow(j)
		cand := Candidate{Middle: j, Serves: members(row), Chosen: true}
		for p := nextBit(left, 0); p >= 0; p = nextBit(left, p+1) {
			if !hasBit(row, p) {
				cand.Blocked = append(cand.Blocked, p)
			}
		}
		ex.Rounds = append(ex.Rounds, cand)
		for i := range left {
			left[i] &^= row[i]
		}
	}
	ex.Residual = members(sc.residual)
	ex.Routable = len(ex.Residual) == 0
	return ex, nil
}

// String renders the explanation for humans (used by diagnostics).
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request %v: input module %d -> output modules %v\n", ex.Request, ex.SourceMod, ex.DestMods)
	if ex.LastHopWave >= 0 {
		fmt.Fprintf(&b, "last hop pinned to λ%d\n", ex.LastHopWave)
	}
	fmt.Fprintf(&b, "available middles: %v (unavailable: %v)\n", ex.Available, ex.Unavailable)
	for i, c := range ex.Rounds {
		fmt.Fprintf(&b, "split %d: middle %d serves %v (blocked for %v)\n", i+1, c.Middle, c.Serves, c.Blocked)
	}
	if ex.Routable {
		b.WriteString("result: ROUTABLE\n")
	} else {
		fmt.Fprintf(&b, "result: BLOCKED — modules %v uncovered\n", ex.Residual)
	}
	return b.String()
}
