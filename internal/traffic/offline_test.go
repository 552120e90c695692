package traffic_test

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// Offline tests drive fabric planes in process through traffic.Local:
// the executable counterpart of Theorems 1 and 2 on the same request
// generator the served path uses.

// msw16 is the standard small fabric: MSW N=16 k=2 r=4, Lite.
func msw16() multistage.Params {
	return multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
}

// runCrossbar runs cfg against one crossbar plane in process.
func runCrossbar(t *testing.T, m wdm.Model, d wdm.Dim, cfg traffic.Config) traffic.Stats {
	t.Helper()
	st := traffic.PlaneStatus("", multistage.Params{N: d.N, K: d.K, Model: m})
	cfg.Client = traffic.NewLocal(st, crossbar.NewLite(m, d.Shape()))
	eng, err := traffic.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return rep.Stats
}

// deterministic strips a run's wall-clock fields (latencies, trace ids,
// round trips) so two runs of one seed compare equal.
func deterministic(s traffic.Stats) traffic.Stats {
	s.Latencies = nil
	s.PhaseMs, s.PhaseN = nil, nil
	tr := make([]traffic.TraceRef, len(s.Traces))
	for i, ref := range s.Traces {
		tr[i] = traffic.TraceRef{Outcome: ref.Outcome, Conn: ref.Conn}
	}
	s.Traces = tr
	return s
}

func TestCrossbarNeverBlocks(t *testing.T) {
	// The strictly nonblocking crossbars must route every admissible
	// dynamic request: blocked count must be zero for every model.
	d := wdm.Dim{N: 6, K: 2}
	for _, m := range wdm.Models {
		s := runCrossbar(t, m, d, traffic.Config{Seed: 11, Arrivals: 3000, Erlangs: 8, MaxFanout: 4})
		if s.BlockedTotal() != 0 {
			t.Errorf("%v: crossbar blocked %d requests", m, s.BlockedTotal())
		}
		if s.Routed == 0 {
			t.Errorf("%v: nothing routed", m)
		}
	}
}

func TestMultistageAtBoundNeverBlocks(t *testing.T) {
	// At the sufficient middle-stage count, dynamic traffic of any mix
	// must never block, across constructions and models and seeds.
	for _, constr := range []multistage.Construction{multistage.MSWDominant, multistage.MAWDominant} {
		for _, model := range wdm.Models {
			p := multistage.Params{N: 16, K: 2, R: 4, Model: model, Construction: constr, Lite: true}
			norm, err := p.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			points, err := traffic.SweepM(traffic.MSweepConfig{
				Base: p, Ms: []int{norm.M}, Seeds: []int64{0, 1, 2},
				Engine: traffic.Config{Arrivals: 2500, Erlangs: 12, MaxFanout: 8},
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", constr, model, err)
			}
			for i, run := range points[0].Runs {
				if run.BlockedTotal() != 0 {
					t.Errorf("%v/%v seed %d: %d blocked at sufficient bound", constr, model, i, run.BlockedTotal())
				}
			}
		}
	}
}

func TestUndersizedMiddleStageBlocks(t *testing.T) {
	// With m = 1 the network must visibly block under load — the sanity
	// check that the offline run can detect blocking at all.
	base := msw16()
	base.X = 1
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: base, Ms: []int{1}, Seeds: []int64{3},
		Engine: traffic.Config{Arrivals: 2000, Erlangs: 12, MaxFanout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := points[0].Total(); s.BlockedTotal() == 0 {
		t.Error("m=1 network never blocked under heavy load")
	}
}

// leaky is a plane that forgets to release: the drain check must see
// the connections it leaves behind.
type leaky struct{ *multistage.Network }

func (leaky) Release(int) error { return nil }

func TestRunLocalVerifiesAfterDrain(t *testing.T) {
	// A gate-level network carries a full run and verifies clean after
	// the engine drains it.
	net, err := multistage.New(multistage.Params{
		N: 8, K: 2, R: 4, Model: wdm.MAW, Construction: multistage.MAWDominant,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.Config{Seed: 5, Arrivals: 400, Erlangs: 6, MaxFanout: 4}
	if _, err := traffic.RunLocal(net, net, cfg); err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
	// A plane that leaves connections behind fails the drain check.
	lite, err := multistage.New(msw16())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traffic.RunLocal(lite, leaky{lite}, cfg); err == nil {
		t.Error("connections left after the run went unnoticed")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	st := traffic.PlaneStatus("", multistage.Params{N: 2, K: 1, Model: wdm.MSW})
	local := traffic.NewLocal(st, crossbar.NewLite(wdm.MSW, wdm.Shape{In: 2, Out: 2, K: 1}))
	for _, cfg := range []traffic.Config{
		{},
		{Client: local, Churn: traffic.ChurnConfig{Rate: -1}},
		{Client: local, Hotspot: traffic.HotspotConfig{Fraction: 2}},
	} {
		if _, err := traffic.NewEngine(cfg); err == nil {
			t.Errorf("NewEngine accepted %+v", cfg)
		}
	}
	// A target with fewer ports than workers is refused at run time.
	eng, err := traffic.NewEngine(traffic.Config{Client: local, WorkersPerFabric: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Error("3 workers on a 2-port plane accepted")
	}
	if _, err := local.Connect(context.Background(), "0.0>1.0", 1); err == nil {
		t.Error("connect to a plane that does not exist accepted")
	}
}

func TestResultAccounting(t *testing.T) {
	s := runCrossbar(t, wdm.MSW, wdm.Dim{N: 4, K: 1}, traffic.Config{Seed: 9, Arrivals: 500, Erlangs: 4})
	if s.Connects != s.Routed+s.Blocked {
		t.Errorf("connects %d != routed %d + blocked %d", s.Connects, s.Routed, s.Blocked)
	}
	if s.Connects+s.Unoffered != 500 {
		t.Errorf("connects %d + unoffered %d != 500 arrivals", s.Connects, s.Unoffered)
	}
	if s.Disconnects != s.Routed {
		t.Errorf("disconnects %d != routed %d: the run did not drain", s.Disconnects, s.Routed)
	}
	if s.Connects == 0 || float64(s.TotalFanout)/float64(s.Connects) < 1 {
		t.Errorf("mean fanout %d/%d below 1", s.TotalFanout, s.Connects)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	d := wdm.Dim{N: 6, K: 2}
	run := func() (traffic.Stats, string) {
		var log bytes.Buffer
		s := runCrossbar(t, wdm.MAW, d, traffic.Config{
			Seed: 77, Arrivals: 800, Erlangs: 5, MaxFanout: 3, StreamLog: &log,
		})
		return deterministic(s), log.String()
	}
	a, alog := run()
	b, blog := run()
	if !reflect.DeepEqual(a, b) || alog != blog {
		t.Errorf("same seed, different runs: %+v vs %+v", a, b)
	}
}

func TestFanoutStratification(t *testing.T) {
	// On an undersized network, larger multicasts must block at least as
	// often as unicasts (they need more middle-stage coverage), and the
	// strata must sum to the totals.
	base := msw16()
	base.X = 2
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: base, Ms: []int{3}, Seeds: []int64{8},
		Engine: traffic.Config{Arrivals: 3000, Erlangs: 10, MaxFanout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := points[0].Total()
	strata := res.ByFanout()
	var off, blk int
	for _, s := range strata {
		off += s.Offered
		blk += s.Blocked
	}
	if off != res.Offered() || blk != res.BlockedTotal() {
		t.Errorf("strata sum to (%d, %d), totals are (%d, %d)", off, blk, res.Offered(), res.BlockedTotal())
	}
	pAt := func(f int) float64 { return float64(strata[f].Blocked) / float64(strata[f].Offered) }
	if s := strata[1]; s.Offered < 100 {
		t.Fatalf("too few unicasts (%d) for a meaningful comparison", s.Offered)
	}
	// Compare unicast blocking against the widest well-sampled stratum.
	for f := 8; f >= 4; f-- {
		if strata[f].Offered >= 30 {
			if pAt(f) < pAt(1) {
				t.Errorf("fanout-%d blocking %.3f below unicast %.3f", f, pAt(f), pAt(1))
			}
			return
		}
	}
	t.Skip("no wide stratum sampled enough")
}

func TestSweepMBlockingMonotoneTrend(t *testing.T) {
	// Blocking probability should fall (weakly) as m grows, hitting zero
	// at the sufficient bound.
	base := msw16()
	ms := traffic.DefaultMs(multistage.MSWDominant, base)
	sort.Ints(ms)
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: base, Ms: ms, Seeds: []int64{13},
		Engine: traffic.Config{Arrivals: 1500, Erlangs: 10, MaxFanout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("sweep produced %d points", len(points))
	}
	blocked := func(p traffic.MPoint) int { s := p.Total(); return s.BlockedTotal() }
	if last := points[len(points)-1]; blocked(last) != 0 {
		t.Errorf("largest m=%d still blocks %d requests", last.M, blocked(last))
	}
	if first := points[0]; blocked(first) == 0 {
		t.Errorf("smallest m=%d never blocks — sweep range uninformative", first.M)
	}
	for _, pt := range points {
		if pt.AtBound && blocked(pt) != 0 {
			t.Errorf("m at sufficient bound (%d) blocked %d requests", pt.M, blocked(pt))
		}
	}
}

func TestSweepMParallelMatchesSerial(t *testing.T) {
	// Sweep points run concurrently; each must equal a run of that point
	// alone.
	cfg := traffic.MSweepConfig{
		Base: msw16(), Ms: []int{1, 3, 6, 13}, Seeds: []int64{21, 22},
		Engine: traffic.Config{Arrivals: 800, Erlangs: 10, MaxFanout: 8},
	}
	all, err := traffic.SweepM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range cfg.Ms {
		for j, seed := range cfg.Seeds {
			one := cfg
			one.Ms, one.Seeds = []int{m}, []int64{seed}
			alone, err := traffic.SweepM(one)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := deterministic(all[i].Runs[j]), deterministic(alone[0].Runs[0]); !reflect.DeepEqual(got, want) {
				t.Errorf("m=%d seed=%d: concurrent run %+v != run alone %+v", m, seed, got, want)
			}
		}
	}
}

func TestSweepMParallelPropagatesErrors(t *testing.T) {
	ecfg := traffic.Config{Arrivals: 10, Erlangs: 4}
	for name, cfg := range map[string]traffic.MSweepConfig{
		"invalid m":   {Base: msw16(), Ms: []int{-5}, Seeds: []int64{1}, Engine: ecfg},
		"bad base":    {Base: multistage.Params{N: 15, K: 2, R: 4, Model: wdm.MSW}, Ms: []int{3}, Seeds: []int64{1}, Engine: ecfg},
		"max-rate":    {Base: msw16(), Ms: []int{3}, Seeds: []int64{1}, Engine: traffic.Config{Arrivals: 10}},
		"bad churn":   {Base: msw16(), Ms: []int{3}, Seeds: []int64{1}, Engine: traffic.Config{Erlangs: 4, Churn: traffic.ChurnConfig{Rate: -1}}},
		"bad hotspot": {Base: msw16(), Ms: []int{3}, Seeds: []int64{1}, Engine: traffic.Config{Erlangs: 4, Hotspot: traffic.HotspotConfig{Fraction: -1}}},
	} {
		if _, err := traffic.SweepM(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSweepLoad(t *testing.T) {
	// traffic.Sweep over offered load against an in-process plane: the
	// other axis of the blocking surface.
	sweep := func(p multistage.Params) traffic.Curves {
		t.Helper()
		net, err := multistage.New(p)
		if err != nil {
			t.Fatal(err)
		}
		curves, err := traffic.Sweep(context.Background(), traffic.SweepConfig{
			Engine: traffic.Config{
				Client: traffic.NewLocal(traffic.PlaneStatus("msw", net.Params()), net),
				Seed:   4, Arrivals: 1200, MaxFanout: 8,
			},
			Points: []float64{2, 6, 12, 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		if net.Len() != 0 {
			t.Errorf("%d connections left after the sweep", net.Len())
		}
		return curves
	}

	// Undersized: blocking must rise with load.
	under := msw16()
	under.M, under.X = 3, 2
	pts := sweep(under).Points
	if pts[0].PBlock >= pts[len(pts)-1].PBlock {
		t.Errorf("blocking did not rise with load: %.4f .. %.4f", pts[0].PBlock, pts[len(pts)-1].PBlock)
	}

	// At the bound: zero at every load (nonblocking is load-independent).
	at := sweep(msw16())
	if !at.AtBound() {
		t.Fatalf("m=%d bound=%d: not at the bound", at.M, at.SufficientM)
	}
	for _, pt := range at.Points {
		if pt.Blocked != 0 {
			t.Errorf("load %.1f: %d blocked at the sufficient bound", pt.Erlangs, pt.Blocked)
		}
	}
}

func TestFindMinBlockFreeM(t *testing.T) {
	// The smallest blocking-free m over two seeds lies strictly above 1
	// and at most at the sufficient bound.
	var ms []int
	for m := 1; m <= 13; m++ {
		ms = append(ms, m)
	}
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: msw16(), Ms: ms, Seeds: []int64{1, 2},
		Engine: traffic.Config{Arrivals: 800, Erlangs: 10, MaxFanout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	minM := 14
	for _, pt := range points {
		if s := pt.Total(); s.BlockedTotal() == 0 {
			minM = pt.M
			break
		}
	}
	if minM < 2 || minM > 13 {
		t.Errorf("empirical min m = %d, expected within (1, 13]", minM)
	}
}

func TestDefaultMsCoverRange(t *testing.T) {
	base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW}
	ms := traffic.DefaultMs(multistage.MSWDominant, base)
	if len(ms) < 4 {
		t.Fatalf("only %d sweep points", len(ms))
	}
	sort.Ints(ms)
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	found := false
	for _, m := range ms {
		if m == suffM {
			found = true
		}
		if m < 1 {
			t.Errorf("sweep point %d below 1", m)
		}
	}
	if !found {
		t.Error("sweep range misses the sufficient bound")
	}
	if ms[0] >= suffM {
		t.Error("sweep range has no undersized points")
	}
}

func undersized() multistage.Params {
	p := msw16()
	p.X = 2
	return p
}

func TestRunSeedsAggregates(t *testing.T) {
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: undersized(), Ms: []int{3}, Seeds: []int64{1, 2, 3, 4},
		Engine: traffic.Config{Arrivals: 800, Erlangs: 10, MaxFanout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := points[0]
	if len(pt.Runs) != 4 {
		t.Fatalf("%d runs", len(pt.Runs))
	}
	mean, max, sd := pt.Spread()
	if mean <= 0 {
		t.Error("undersized network shows zero mean blocking")
	}
	if max < mean || sd < 0 {
		t.Errorf("spread mean=%g max=%g stddev=%g", mean, max, sd)
	}
	totalBlocked := 0
	for _, r := range pt.Runs {
		totalBlocked += r.BlockedTotal()
	}
	if total := pt.Total(); total.BlockedTotal() != totalBlocked {
		t.Errorf("Total blocked = %d, runs sum to %d", total.BlockedTotal(), totalBlocked)
	}
}

func TestRunSeedsMatchesSerialRun(t *testing.T) {
	ecfg := traffic.Config{Arrivals: 500, Erlangs: 8, MaxFanout: 4}
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base: undersized(), Ms: []int{3}, Seeds: []int64{7}, Engine: ecfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := undersized()
	p.M = 3
	net, err := multistage.New(p)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Seed = 7
	serial, err := traffic.RunLocal(net, net, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deterministic(points[0].Runs[0]), deterministic(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("sweep run differs from a direct run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestRunSeedsPropagatesErrors(t *testing.T) {
	ecfg := traffic.Config{Arrivals: 10, Erlangs: 4}
	if _, err := traffic.SweepM(traffic.MSweepConfig{Base: undersized(), Ms: []int{3}, Engine: ecfg}); err == nil {
		t.Error("no seeds accepted")
	}
	// A plane that fails to build inside one run fails the whole sweep.
	if _, err := traffic.SweepM(traffic.MSweepConfig{Base: undersized(), Ms: []int{3, -5}, Seeds: []int64{1, 2}, Engine: ecfg}); err == nil {
		t.Error("plane build error swallowed")
	}
}
