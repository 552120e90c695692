package multistage

import (
	"fmt"

	"repro/internal/crossbar"
	"repro/internal/wdm"
)

// Construction selects which model the first two stages use (Fig. 9).
type Construction int

const (
	// MSWDominant builds input- and middle-stage modules under the MSW
	// model: a connection entering on wavelength λ stays on λ until the
	// output stage. Cheapest; Theorem 1 gives its nonblocking bound.
	MSWDominant Construction = iota
	// MAWDominant builds input- and middle-stage modules under the MAW
	// model: the first two stages may retune freely, so an inter-stage
	// link is usable while any of its k wavelengths is free. Theorem 2
	// gives its nonblocking bound.
	MAWDominant
	// AWGClos builds the middle stage from passive arrayed-waveguide
	// gratings (AWG-based nonblocking Clos networks, arXiv 1308.4477):
	// middle crosspoints neither convert nor multicast, and the cyclic
	// wavelength-routing law fixes the wavelength any middle must carry
	// for an (input module a, output module p) pair to
	// λ = (p - a) mod k. Input modules carry tunable transmitters (MAW);
	// the network model must be MAW so converting output modules can
	// deliver the forced class wavelength to arbitrary destination slots.
	// AWGClosMinM gives its sufficient nonblocking bound.
	AWGClos
)

func (c Construction) String() string {
	switch c {
	case MSWDominant:
		return "MSW-dominant"
	case MAWDominant:
		return "MAW-dominant"
	case AWGClos:
		return "AWG-Clos"
	default:
		return fmt.Sprintf("Construction(%d)", int(c))
	}
}

// Stage12Model returns the model used by the first two stages. For
// AWG-Clos it is the input stage's model (MAW: tunable transmitters);
// the passive middle stage is wavelength-locked (MSW) — see MiddleModel.
func (c Construction) Stage12Model() wdm.Model {
	if c == MAWDominant || c == AWGClos {
		return wdm.MAW
	}
	return wdm.MSW
}

// MiddleModel returns the model the middle-stage modules implement:
// the Stage12Model for the paper's constructions, MSW for AWG-Clos
// (a passive grating cannot retune a wavelength in flight).
func (c Construction) MiddleModel() wdm.Model {
	if c == AWGClos {
		return wdm.MSW
	}
	return c.Stage12Model()
}

// Strategy selects how the router picks middle-stage modules for a new
// connection. The theorems certify GreedyMinIntersection; the others
// exist as ablations of that design choice.
type Strategy int

const (
	// GreedyMinIntersection repeatedly picks the available middle module
	// whose destination (multi)set leaves the smallest uncovered residual
	// — the selection order inside the proofs of Lemma 5 and [14]. This
	// is the certified default.
	GreedyMinIntersection Strategy = iota
	// FirstFit picks the lowest-indexed available middle module that
	// covers at least one uncovered destination module. Simpler and
	// cheaper per decision, but not covered by the theorems' guarantee —
	// the ablation benchmarks measure how much larger m must be for it.
	FirstFit
)

func (s Strategy) String() string {
	switch s {
	case GreedyMinIntersection:
		return "greedy-min-intersection"
	case FirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// WavePick selects which free wavelength an MAW-dominant link claim
// takes when several are free — the classic WDM wavelength-assignment
// policies. MSW-dominant links are wavelength-locked, so the policy only
// matters for MAW-dominant networks.
type WavePick int

const (
	// FirstFree takes the lowest-indexed free wavelength (first-fit,
	// the standard default in WDM assignment studies).
	FirstFree WavePick = iota
	// MostUsed takes the free wavelength that is busiest across the
	// whole stage ("packing": concentrates traffic on few wavelengths,
	// keeping whole wavelengths free elsewhere).
	MostUsed
	// LeastUsed takes the globally least-busy free wavelength
	// ("spreading").
	LeastUsed
)

func (w WavePick) String() string {
	switch w {
	case FirstFree:
		return "first-free"
	case MostUsed:
		return "most-used"
	case LeastUsed:
		return "least-used"
	default:
		return fmt.Sprintf("WavePick(%d)", int(w))
	}
}

// Params describes a three-stage network. N = n*r ports with k
// wavelengths each; R modules in the outer stages (so each input module
// has n = N/R ports); M middle modules. Model is the network's multicast
// model, which the output-stage modules implement.
type Params struct {
	N, K         int
	R            int
	M            int // 0 = minimal from the construction's theorem
	X            int // routing split limit; 0 = the theorem's optimal x
	Model        wdm.Model
	Construction Construction
	// Strategy selects the middle-module selection rule
	// (GreedyMinIntersection unless overridden — see Strategy).
	Strategy Strategy
	// WavePick selects the wavelength-assignment policy for MAW-dominant
	// link claims (FirstFree unless overridden).
	WavePick WavePick
	// ConservativeLinks, under the MAW-dominant construction, treats an
	// inter-stage link as unusable once *any* of its k wavelengths is
	// taken — the plain-set semantics the destination *multisets* of
	// Eqs. 2-5 exist to avoid. Ablation only: it wastes k-1 wavelengths
	// per claimed link, and the benchmarks quantify how much larger the
	// middle stage must grow to compensate.
	ConservativeLinks bool
	// Depth is the total stage count: 0 or 3 builds the classic
	// three-stage network; 5, 7, ... recursively replace each middle
	// module with a (Depth-2)-stage network of the same construction, as
	// Section 3 describes. Recursion requires the middle module size r to
	// factor into two parts >= 2 at every level.
	Depth int
	// Lite skips gate-level fabrics inside the modules (routing behaviour
	// is identical; optical verification becomes unavailable). Use for
	// large parameter sweeps.
	Lite bool
}

// Normalize validates the parameters and fills in defaulted fields (M, X).
func (p Params) Normalize() (Params, error) {
	if p.N <= 0 || p.K <= 0 {
		return p, fmt.Errorf("multistage: N=%d k=%d must be positive", p.N, p.K)
	}
	if p.R <= 0 || p.N%p.R != 0 {
		return p, fmt.Errorf("multistage: R=%d must divide N=%d", p.R, p.N)
	}
	n := p.N / p.R
	switch p.Model {
	case wdm.MSW, wdm.MSDW, wdm.MAW:
	default:
		return p, fmt.Errorf("multistage: unknown model %v", p.Model)
	}
	switch p.Construction {
	case MSWDominant, MAWDominant:
	case AWGClos:
		if p.Model != wdm.MAW {
			return p, fmt.Errorf("multistage: AWG-Clos needs converting (MAW) output modules to deliver the class wavelength, not %v", p.Model)
		}
		if p.Depth != 0 && p.Depth != 3 {
			return p, fmt.Errorf("multistage: AWG-Clos does not nest (Depth=%d)", p.Depth)
		}
	default:
		return p, fmt.Errorf("multistage: unknown construction %v", p.Construction)
	}
	if p.M == 0 || p.X == 0 {
		m, x := SufficientMinM(p.Construction, p.Model, n, p.R, p.K)
		if p.M == 0 {
			p.M = m
		}
		if p.X == 0 {
			p.X = x
		}
	}
	if p.X < 1 {
		return p, fmt.Errorf("multistage: X=%d must be at least 1", p.X)
	}
	if p.M < 1 {
		return p, fmt.Errorf("multistage: M=%d must be at least 1", p.M)
	}
	if p.Depth == 0 {
		p.Depth = 3
	}
	if p.Depth < 3 || p.Depth%2 == 0 {
		return p, fmt.Errorf("multistage: Depth=%d must be an odd number >= 3", p.Depth)
	}
	if p.Depth > 3 {
		if _, err := nestedSplit(p.R, p.Depth-2); err != nil {
			return p, err
		}
	}
	return p, nil
}

// nestedSplit returns the outer-stage module count for a nested network
// of size r at the given depth, erring if r cannot support the
// recursion (every level needs a factorization into parts >= 2).
func nestedSplit(r, depth int) (int, error) {
	best := 0
	for cand := 2; cand*2 <= r; cand++ {
		if r%cand != 0 || r/cand < 2 {
			continue
		}
		// Prefer the split closest to sqrt(r).
		if best == 0 || absInt(cand*cand-r) < absInt(best*best-r) {
			best = cand
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("multistage: middle size r=%d cannot be factored for a %d-stage nesting", r, depth+2)
	}
	if depth > 3 {
		if _, err := nestedSplit(best, depth-2); err != nil {
			return 0, err
		}
	}
	return best, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// n returns ports per outer-stage module.
func (p Params) n() int { return p.N / p.R }

// module is what the router requires of a switching module. A gate-level
// or lite crossbar satisfies it — and so does Network itself, which is
// what enables the paper's recursive constructions: "in general, a
// network can have any odd number of stages and be built in a recursive
// fashion from these switching modules, which are in fact regarded as
// networks of a smaller size."
type module interface {
	Add(wdm.Connection) (int, error)
	Release(int) error
	Connection(int) (wdm.Connection, bool)
	Cost() crossbar.Cost
	Len() int
}

var (
	_ module = (*crossbar.Switch)(nil)
	_ module = (*Network)(nil)
)

// routed records how one network connection is realized across modules.
type routed struct {
	conn     wdm.Connection
	srcMod   int
	inConnID int // sub-connection id in input module srcMod; -1 until installed
	// legs are the claimed input-stage links, ascending by middle; hops
	// the claimed output-stage links, ascending by middle then output
	// module. Each output module is reached through exactly one hop.
	legs []routeLeg
	hops []routeHop
}

// routeLeg is one claimed link srcMod->Middle together with the
// connection's sub-connection id in that middle module.
type routeLeg struct {
	RouteLeg
	cid int // -1 until installed
}

// routeHop is one claimed link Middle->Out together with the
// connection's sub-connection id in output module Out.
type routeHop struct {
	RouteHop
	cid int // -1 until installed
}

// rides reports whether the route passes through middle module j.
func (rc *routed) rides(j int) bool {
	for _, l := range rc.legs {
		if l.Middle == j {
			return true
		}
	}
	return false
}

// Network is a live three-stage WDM multicast switching network.
// It is not safe for concurrent use.
type Network struct {
	params Params
	nPorts int // ports per outer module (the paper's n)

	inMods  []*crossbar.Switch // r modules, shape n x m
	midMods []module           // m modules, r x r: crossbars, or nested Networks when Depth > 3
	outMods []*crossbar.Switch // r modules, shape m x n

	// Link occupancy, kept two ways by claim/free. inLink/outLink name
	// the owning connection id (or freeLink) of every link wavelength:
	// the record Verify, forensics and DumpState read. inBusy/outBusy
	// hold the same occupancy as bitsets, which is what the router
	// searches (see occupancy.go).
	inLink  [][][]int // [r][m][k]: input module a -> middle j, wavelength w
	outLink [][][]int // [m][r][k]: middle j -> output module p, wavelength w
	inBusy  []uint64  // set over middles per (a, w); see inSet
	outBusy []uint64  // set over output modules per (j, w); see outSet
	// midWords and modWords are the word counts of a set over middles
	// and over outer-stage modules.
	midWords, modWords int
	// waveUse[w] counts claimed link wavelengths per plane (for the
	// MostUsed/LeastUsed wavelength-assignment policies).
	waveUse []int
	// failed is the set of middle modules out of service (see failure.go).
	failed []uint64

	conns   map[int]*routed
	nextID  int
	srcBusy wdm.SlotSet
	dstBusy wdm.SlotSet

	// scratch is the per-call routing state, sized once at New.
	scratch scratch

	// Stats.
	routedCount  int64
	blockedCount int64

	// observer, when set, receives one RouteStep per middle-stage
	// decision during Add (see observer.go).
	observer func(RouteStep)
}

const freeLink = -1

// New builds a three-stage network from the (normalized) parameters.
func New(p Params) (*Network, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	n, r, m, k := p.n(), p.R, p.M, p.K
	mk := func(model wdm.Model, in, out int) *crossbar.Switch {
		sh := wdm.Shape{In: in, Out: out, K: k}
		if p.Lite {
			return crossbar.NewLite(model, sh)
		}
		return crossbar.NewShape(model, sh)
	}
	s12 := p.Construction.Stage12Model()
	mid := p.Construction.MiddleModel()
	net := &Network{
		params:   p,
		nPorts:   n,
		conns:    make(map[int]*routed),
		srcBusy:  wdm.NewSlotSet(p.N, k),
		dstBusy:  wdm.NewSlotSet(p.N, k),
		midWords: wordsFor(m),
		modWords: wordsFor(r),
	}
	for a := 0; a < r; a++ {
		net.inMods = append(net.inMods, mk(s12, n, m))
		net.outMods = append(net.outMods, mk(p.Model, m, n))
	}
	for j := 0; j < m; j++ {
		if p.Depth > 3 {
			// Recursive construction: the middle module is itself a
			// (Depth-2)-stage network of size r x r under the first-two-
			// stage model, same construction, sized by its own
			// sufficient bound.
			rn, err := nestedSplit(r, p.Depth-2)
			if err != nil {
				return nil, err
			}
			nested, err := New(Params{
				N: r, K: k, R: rn,
				Model:        s12,
				Construction: p.Construction,
				Strategy:     p.Strategy,
				Depth:        p.Depth - 2,
				Lite:         p.Lite,
			})
			if err != nil {
				return nil, fmt.Errorf("multistage: nested middle module %d: %w", j, err)
			}
			net.midMods = append(net.midMods, nested)
			continue
		}
		net.midMods = append(net.midMods, mk(mid, r, r))
	}
	net.inLink = makeLinks(r, m, k)
	net.outLink = makeLinks(m, r, k)
	net.inBusy = make([]uint64, r*k*net.midWords)
	net.outBusy = make([]uint64, m*k*net.modWords)
	net.waveUse = make([]int, k)
	net.failed = make([]uint64, net.midWords)
	net.scratch = newScratch(n, r, m)
	return net, nil
}

// makeLinks builds an a x b x k owner table, every entry freeLink. The
// rows share one backing array, so a plane costs a+2 allocations, not
// one per link.
func makeLinks(a, b, k int) [][][]int {
	cells := make([]int, a*b*k)
	for i := range cells {
		cells[i] = freeLink
	}
	l := make([][][]int, a)
	for i := range l {
		l[i] = make([][]int, b)
		for j := range l[i] {
			off := (i*b + j) * k
			l[i][j] = cells[off : off+k : off+k]
		}
	}
	return l
}

// Params returns the normalized parameters the network was built with.
func (net *Network) Params() Params { return net.params }

// Shape returns the external N x N k-wavelength shape.
func (net *Network) Shape() wdm.Shape {
	return wdm.Shape{In: net.params.N, Out: net.params.N, K: net.params.K}
}

// Len returns the number of live connections.
func (net *Network) Len() int { return len(net.conns) }

// Stats returns how many Add calls succeeded and how many were blocked
// (admissible but unroutable) since construction.
func (net *Network) Stats() (routedOK, blocked int64) {
	return net.routedCount, net.blockedCount
}

// splitPort maps a network port to (module, local port).
func (net *Network) splitPort(p wdm.Port) (mod int, local wdm.Port) {
	return int(p) / net.nPorts, wdm.Port(int(p) % net.nPorts)
}

// Connections returns a snapshot of all live connections keyed by id.
func (net *Network) Connections() map[int]wdm.Connection {
	out := make(map[int]wdm.Connection, len(net.conns))
	for id, rc := range net.conns {
		out[id] = rc.conn.Clone()
	}
	return out
}

// Utilization summarizes the inter-stage link occupancy of the network.
type Utilization struct {
	// InLinkBusy and OutLinkBusy are the fractions of occupied
	// (link, wavelength) pairs between stages 1-2 and 2-3.
	InLinkBusy, OutLinkBusy float64
	// BusiestInLink and BusiestOutLink are the highest per-link
	// wavelength occupancy counts observed (0..k).
	BusiestInLink, BusiestOutLink int
	// InBusy/InTotal and OutBusy/OutTotal are the occupied and total
	// (link, wavelength) pair counts behind the fractions — the raw
	// per-stage occupancy gauges the serving path exports.
	InBusy, InTotal   int
	OutBusy, OutTotal int
}

// Utilization reports the current inter-stage link occupancy — the
// quantity Lee's approximation takes as input, measured rather than
// assumed.
func (net *Network) Utilization() Utilization {
	var u Utilization
	inBusy, inTotal := 0, 0
	for a := range net.inLink {
		for j := range net.inLink[a] {
			busy := 0
			for _, v := range net.inLink[a][j] {
				inTotal++
				if v != freeLink {
					inBusy++
					busy++
				}
			}
			if busy > u.BusiestInLink {
				u.BusiestInLink = busy
			}
		}
	}
	outBusy, outTotal := 0, 0
	for j := range net.outLink {
		for p := range net.outLink[j] {
			busy := 0
			for _, v := range net.outLink[j][p] {
				outTotal++
				if v != freeLink {
					outBusy++
					busy++
				}
			}
			if busy > u.BusiestOutLink {
				u.BusiestOutLink = busy
			}
		}
	}
	u.InBusy, u.InTotal = inBusy, inTotal
	u.OutBusy, u.OutTotal = outBusy, outTotal
	if inTotal > 0 {
		u.InLinkBusy = float64(inBusy) / float64(inTotal)
	}
	if outTotal > 0 {
		u.OutLinkBusy = float64(outBusy) / float64(outTotal)
	}
	return u
}

// Connection returns the live connection with the given id (satisfying
// the module interface so a Network can serve as a nested middle module).
func (net *Network) Connection(id int) (wdm.Connection, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return wdm.Connection{}, false
	}
	return rc.conn.Clone(), true
}
