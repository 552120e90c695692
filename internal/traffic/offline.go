package traffic

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
)

// MSweepConfig is an in-process sweep over the middle-stage count m:
// for every m and every seed, one engine run against a fresh Lite plane
// built from Base at that m. It is the offline form of Theorems 1 and
// 2 — P_block must be exactly 0 for every seed at or above the
// sufficient bound, while undersized middle stages block measurably —
// and it serves the blocking-vs-m series, the smallest blocking-free m
// and the multi-seed spread alike.
type MSweepConfig struct {
	Base  multistage.Params
	Ms    []int
	Seeds []int64
	// Engine is the per-run template; Client and Seed are set per run.
	// Erlangs must be positive: one Erlang-mode worker per plane keeps
	// every run a pure function of its seed.
	Engine Config
	// Repack runs every plane as a Repacker (rearrangeable operation).
	Repack bool
}

// MPoint is one middle-stage count of a sweep.
type MPoint struct {
	M        int     `json:"m"`
	AtBound  bool    `json:"at_bound"`    // m is the sufficient bound
	PaperMin int     `json:"paper_min_m"` // the paper's stated bound, for reference
	Runs     []Stats `json:"runs"`        // one per seed, in seed order
	Repacked int     `json:"repacked"`    // adds rearrangement saved, all seeds
}

// Total merges the point's runs.
func (p MPoint) Total() Stats {
	t := newStats()
	for _, r := range p.Runs {
		t.merge(r)
	}
	return t
}

// Spread is the per-seed blocking probability's mean, maximum and
// standard deviation.
func (p MPoint) Spread() (mean, max, stddev float64) {
	var sum, sumSq float64
	for _, r := range p.Runs {
		pb := r.PBlock()
		sum += pb
		sumSq += pb * pb
		if pb > max {
			max = pb
		}
	}
	n := float64(len(p.Runs))
	mean = sum / n
	if v := sumSq/n - mean*mean; v > 0 {
		stddev = math.Sqrt(v)
	}
	return mean, max, stddev
}

// SweepM runs the (m, seed) pairs concurrently, up to GOMAXPROCS at a
// time — each run owns its plane and its PRNGs, so the result equals
// running that pair alone — and returns the points in Ms order. After each run drains, the plane
// must verify and hold no connection.
func SweepM(cfg MSweepConfig) ([]MPoint, error) {
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("traffic: SweepM needs at least one seed")
	}
	if cfg.Engine.Erlangs <= 0 {
		return nil, fmt.Errorf("traffic: SweepM needs Erlangs > 0")
	}
	norm, err := cfg.Base.Normalize()
	if err != nil {
		return nil, err
	}
	n := norm.N / norm.R
	suffM, _ := multistage.SufficientMinM(norm.Construction, norm.Model, n, norm.R, norm.K)
	paperM, _ := multistage.PaperMinM(norm.Construction, n, norm.R, norm.K)

	points := make([]MPoint, len(cfg.Ms))
	errs := make([]error, len(cfg.Ms)*len(cfg.Seeds))
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards MPoint.Repacked
		// The runs are CPU-bound: a semaphore of GOMAXPROCS slots keeps
		// only that many planes alive at once.
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for i, m := range cfg.Ms {
		points[i] = MPoint{M: m, AtBound: m == suffM, PaperMin: paperM, Runs: make([]Stats, len(cfg.Seeds))}
		for j := range cfg.Seeds {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				s, rp, err := runAtM(cfg, cfg.Ms[i], cfg.Seeds[j])
				if err != nil {
					errs[i*len(cfg.Seeds)+j] = fmt.Errorf("traffic: m=%d seed=%d: %w", cfg.Ms[i], cfg.Seeds[j], err)
					return
				}
				points[i].Runs[j] = s
				mu.Lock()
				points[i].Repacked += rp
				mu.Unlock()
			}(i, j)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// runAtM is one engine run against a fresh plane at m.
func runAtM(cfg MSweepConfig, m int, seed int64) (Stats, int, error) {
	p := cfg.Base
	p.M = m
	p.Lite = true
	net, err := multistage.New(p)
	if err != nil {
		return Stats{}, 0, err
	}
	var plane Plane = net
	rp := &Repacker{Network: net}
	if cfg.Repack {
		plane = rp
	}
	ecfg := cfg.Engine
	ecfg.Seed = seed
	ecfg.WorkersPerFabric = 1
	s, err := RunLocal(net, plane, ecfg)
	return s, rp.Repacked, err
}

// RunLocal is one engine run of cfg against plane, an in-process view
// of net: net itself, or an adapter over it (a Repacker, a trace
// recorder). After the engine drains, net must verify and hold no
// connection.
func RunLocal(net *multistage.Network, plane Plane, cfg Config) (Stats, error) {
	p := net.Params()
	cfg.Client = NewLocal(PlaneStatus(backend.ForConstruction(p.Construction), p), plane)
	eng, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		return rep.Stats, err
	}
	if err := net.Verify(); err != nil {
		return rep.Stats, fmt.Errorf("plane fails verification after the run: %w", err)
	}
	if left := net.Len(); left != 0 {
		return rep.Stats, fmt.Errorf("%d connections left after the run drained", left)
	}
	return rep.Stats, nil
}

// DefaultMs is a sweep range around the sufficient bound: a few heavily
// undersized points, the paper bound, the sufficient bound, and one
// above.
func DefaultMs(construction multistage.Construction, base multistage.Params) []int {
	norm, err := base.Normalize()
	if err != nil {
		return nil
	}
	n := norm.N / norm.R
	suffM, _ := multistage.SufficientMinM(construction, norm.Model, n, norm.R, norm.K)
	paperM, _ := multistage.PaperMinM(construction, n, norm.R, norm.K)
	set := map[int]bool{}
	var ms []int
	for _, v := range []int{1, suffM / 4, suffM / 2, 3 * suffM / 4, paperM, suffM, suffM + suffM/4} {
		if v >= 1 && !set[v] {
			set[v] = true
			ms = append(ms, v)
		}
	}
	return ms
}
