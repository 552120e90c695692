// wdmsim runs dynamic-traffic simulations against the three-stage WDM
// multicast networks and prints blocking probability as a function of the
// middle-stage module count m — the executable counterpart of Theorems 1
// and 2 (there is no empirical section in the paper; this regenerates the
// repository's validation series documented in EXPERIMENTS.md). The
// traffic is the internal/traffic engine's, driving each network in
// process; every sweep point runs concurrently.
//
// Usage:
//
//	wdmsim -n 16 -k 2 -r 4 -model msw -construction msw -requests 5000
//	wdmsim -n 16 -k 2 -r 4 -model maw -construction maw -load 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/multistage"
	"repro/internal/report"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

func main() {
	n := flag.Int("n", 16, "network size N")
	k := flag.Int("k", 2, "wavelengths per fiber")
	r := flag.Int("r", 4, "outer-stage module count (must divide N)")
	modelName := flag.String("model", "msw", "multicast model: msw, msdw, maw")
	constrName := flag.String("construction", "msw", "construction: msw (MSW-dominant) or maw (MAW-dominant)")
	requests := flag.Int("requests", 4000, "number of connection arrivals per point")
	load := flag.Float64("load", 12, "offered load in Erlangs (mean arrivals per mean holding time)")
	maxFanout := flag.Int("fanout", 0, "max fanout (0 = N)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	repack := flag.Bool("repack", false, "rearrangeable operation: retry blocked requests with repacking")
	byFanout := flag.Bool("by-fanout", false, "also print blocking stratified by fanout (largest m only)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the table")
	nSeeds := flag.Int("seeds", 1, "seeds per point (seed, seed+1, ...); >1 adds per-point aggregates")
	flag.Parse()

	model, err := wdm.ParseModel(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(2)
	}
	var constr multistage.Construction
	switch *constrName {
	case "msw":
		constr = multistage.MSWDominant
	case "maw":
		constr = multistage.MAWDominant
	default:
		fmt.Fprintln(os.Stderr, "wdmsim: -construction must be msw or maw")
		os.Exit(2)
	}
	if *nSeeds < 1 {
		fmt.Fprintln(os.Stderr, "wdmsim: -seeds must be at least 1")
		os.Exit(2)
	}

	base := multistage.Params{N: *n, K: *k, R: *r, Model: model, Construction: constr, Lite: true}
	ms := traffic.DefaultMs(constr, base)
	sort.Ints(ms)
	seeds := make([]int64, *nSeeds)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}
	cfg := traffic.MSweepConfig{
		Base: base, Ms: ms, Seeds: seeds, Repack: *repack,
		Engine: traffic.Config{Arrivals: *requests, Erlangs: *load, MaxFanout: *maxFanout},
	}
	points, err := traffic.SweepM(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(base, points, cfg, *seed, *repack)
		return
	}

	norm, _ := base.Normalize()
	mode := "strict"
	if *repack {
		mode = "rearrangeable"
	}
	t := report.New(fmt.Sprintf("Blocking probability vs middle-stage size m — N=%d k=%d r=%d %v %v, %s (%d requests, load %.1f)",
		*n, *k, *r, model, constr, mode, *requests, *load),
		"m", "offered", "routed", "blocked", "repacked", "P_block", "note")
	for _, pt := range points {
		note := ""
		if pt.M == pt.PaperMin {
			note = "paper theorem bound"
		}
		if pt.AtBound {
			if note != "" {
				note += " = "
			}
			note += "sufficient bound"
		}
		s := pt.Total()
		t.AddRow(report.Int(pt.M),
			report.Int(s.Offered()), report.Int(s.Routed), report.Int(s.BlockedTotal()),
			report.Int(pt.Repacked), report.Float(s.PBlock(), 4), note)
	}
	t.Footnote = fmt.Sprintf("n=%d per module; x=%d; expectation: P_block = 0 at and above the sufficient bound",
		norm.N/norm.R, norm.X)
	t.Fprint(os.Stdout)

	if *nSeeds > 1 {
		fmt.Println()
		at := report.New(fmt.Sprintf("Aggregate over %d seeds (seed %d..%d)", *nSeeds, *seed, *seed+int64(*nSeeds)-1),
			"m", "mean P_block", "max P_block", "stddev", "blocked", "offered")
		for _, pt := range points {
			mean, max, sd := pt.Spread()
			s := pt.Total()
			at.AddRow(report.Int(pt.M),
				report.Float(mean, 4), report.Float(max, 4), report.Float(sd, 4),
				report.Int(s.BlockedTotal()), report.Int(s.Offered()))
		}
		at.Fprint(os.Stdout)
	}

	if *byFanout && len(points) > 0 {
		last := points[len(points)-1]
		total := last.Total()
		strata := total.ByFanout()
		fmt.Println()
		ft := report.New(fmt.Sprintf("Blocking by fanout at m=%d", last.M),
			"fanout", "offered", "blocked", "P_block")
		fanouts := make([]int, 0, len(strata))
		for f := range strata {
			fanouts = append(fanouts, f)
		}
		sort.Ints(fanouts)
		for _, f := range fanouts {
			s := strata[f]
			ft.AddRow(report.Int(f), report.Int(s.Offered), report.Int(s.Blocked),
				report.Float(float64(s.Blocked)/float64(s.Offered), 4))
		}
		ft.Fprint(os.Stdout)
	}
}

// jsonPoint is one sweep sample in -json output: the point's totals over
// every seed, plus the per-seed spread.
type jsonPoint struct {
	M         int           `json:"m"`
	AtBound   bool          `json:"at_bound"`
	PaperMinM int           `json:"paper_min_m"`
	Result    traffic.Stats `json:"result"`
	PBlock    float64       `json:"p_block"`
	Repacked  int           `json:"repacked"`
	MeanP     float64       `json:"mean_p_block"`
	MaxP      float64       `json:"max_p_block"`
	StddevP   float64       `json:"stddev_p_block"`
}

// jsonDoc is the -json document: enough configuration to rebuild the
// run plus every point, so server-side (wdmserve /v1/metrics) and
// offline blocking numbers can be diffed by scripts.
type jsonDoc struct {
	N            int         `json:"n"`
	K            int         `json:"k"`
	R            int         `json:"r"`
	NPerModule   int         `json:"n_per_module"`
	X            int         `json:"x"`
	Model        string      `json:"model"`
	Construction string      `json:"construction"`
	Requests     int         `json:"requests"`
	Load         float64     `json:"load"`
	MaxFanout    int         `json:"max_fanout"`
	Seed         int64       `json:"seed"`
	Seeds        int         `json:"seeds"`
	Rearrange    bool        `json:"rearrangeable"`
	Points       []jsonPoint `json:"points"`
}

func emitJSON(base multistage.Params, points []traffic.MPoint, cfg traffic.MSweepConfig, seed int64, repack bool) {
	norm, err := base.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}
	doc := jsonDoc{
		N: norm.N, K: norm.K, R: norm.R,
		NPerModule:   norm.N / norm.R,
		X:            norm.X,
		Model:        norm.Model.String(),
		Construction: norm.Construction.String(),
		Requests:     cfg.Engine.Arrivals,
		Load:         cfg.Engine.Erlangs,
		MaxFanout:    cfg.Engine.MaxFanout,
		Seed:         seed,
		Seeds:        len(cfg.Seeds),
		Rearrange:    repack,
	}
	for _, pt := range points {
		s := pt.Total()
		jp := jsonPoint{M: pt.M, AtBound: pt.AtBound, PaperMinM: pt.PaperMin, Result: s, PBlock: s.PBlock(), Repacked: pt.Repacked}
		jp.MeanP, jp.MaxP, jp.StddevP = pt.Spread()
		doc.Points = append(doc.Points, jp)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "wdmsim:", err)
		os.Exit(1)
	}
}
