// wdmbench is the repository's benchmark. It starts an in-process
// switchd with wdmserve's default serving configuration behind a real
// loopback listener, loads it from the same process with the
// internal/traffic engine through the typed client, checks the answers,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output:
//
//	wdmbench -workload unicast-cycle -seed 1 -seconds 10 -trace 0
//
// Run it through wdmbench/run.sh from the repository root, which builds
// it from source first. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/switchd"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string

	setupChild bool
	seedDir    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "unicast-cycle", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured load time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories and span files")
	flag.BoolVar(&o.setupChild, "setup-child", false, "only time one cold set-up and print it (a run starts such processes itself)")
	flag.StringVar(&o.seedDir, "seed-dir", "", "with -setup-child, the seeded log a durable workload's server recovers")
	flag.Parse()
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds < 1 {
		fatalf("-trace must be 0 or 1 and -seconds at least 1")
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fatalf("%v", err)
	}
	// Oversubscribed runs measure the scheduler, not the server.
	if nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); procs > nproc {
		fatalf("GOMAXPROCS=%d exceeds nproc=%d; refusing an oversubscribed run", procs, nproc)
	} else if c := w.loadConnections(); c > nproc {
		fatalf("workload %s needs %d load connections, more than nproc=%d", w.name, c, nproc)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	runDir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if o.setupChild {
		err := setupChild(ctx, w, o.seedDir, runDir)
		os.RemoveAll(runDir)
		if err != nil {
			fatalf("%s: set-up: %v", w.name, err)
		}
		return
	}
	var res result
	if o.trace {
		res, err = tracedRun(ctx, w, o, runDir)
	} else {
		res, err = measuredRun(ctx, w, o, runDir)
	}
	os.RemoveAll(runDir)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wdmbench: "+format+"\n", args...)
	os.Exit(2)
}

// stamp is the record of what ran where, printed before the metrics.
type stamp struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Traced     bool       `json:"traced"`
	Nproc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Revision   string     `json:"vcs_revision"`
	Modified   bool       `json:"vcs_modified"`
	Server     serverInfo `json:"server_config"`
}

// serverInfo is the switchd.Config a run served with (its function and
// writer fields omitted) and the fabric bound it resolved to.
type serverInfo struct {
	Backend          string `json:"backend"`
	N                int    `json:"n"`
	K                int    `json:"k"`
	R                int    `json:"r"`
	M                int    `json:"m"`
	SufficientM      int    `json:"sufficient_m"`
	X                int    `json:"x"`
	Model            string `json:"model"`
	Replicas         int    `json:"replicas"`
	Shards           int    `json:"shards"`
	SpanCapacity     int    `json:"span_capacity"`
	SpanSampleEvery  int    `json:"span_sample_every"`
	ProfMutex        int    `json:"prof_mutex_fraction"`
	ProfBlockNs      int    `json:"prof_block_rate_ns"`
	ProfInterval     string `json:"prof_interval"`
	HistoryInterval  string `json:"history_interval"`
	DataDir          bool   `json:"data_dir"`
	WALSyncDelay     string `json:"wal_sync_delay"`
	SemiSyncStandby  bool   `json:"semisync_standby"`
	SnapshotInterval string `json:"snapshot_interval"`
}

func newStamp(w workload, o options, cfg switchd.Config, ctl *switchd.Controller) stamp {
	st := stamp{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	p := ctl.Params()
	st.Server = serverInfo{
		Backend: ctl.Backend(), N: p.N, K: p.K, R: p.R, M: p.M, SufficientM: ctl.Status().SufficientM,
		X: p.X, Model: p.Model.String(), Replicas: cfg.Replicas, Shards: cfg.Shards,
		SpanCapacity: cfg.Spans.Capacity, SpanSampleEvery: cfg.Spans.SampleEvery,
		ProfMutex: cfg.Prof.MutexFraction, ProfBlockNs: cfg.Prof.BlockRateNs,
		ProfInterval: cfg.Prof.Interval.String(), HistoryInterval: cfg.HistoryInterval.String(),
		DataDir: w.durable, WALSyncDelay: cfg.WALSyncDelay.String(), SemiSyncStandby: w.durable,
		SnapshotInterval: cfg.SnapshotInterval.String(),
	}
	return st
}

// printStamp writes the stamp as one JSON line.
func printStamp(st stamp) {
	b, _ := json.Marshal(map[string]stamp{"host": st})
	fmt.Println(string(b))
}

// printTable writes name, value and unit per metric, in name order, with
// a note (sample counts) where one is given.
func printTable(title string, defs []metricDef, values map[string]float64, notes map[string]string) {
	fmt.Println(title)
	names := make([]string, 0, len(values))
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.4f %-14s %s\n", name, values[name], units[name], notes[name])
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
