package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary in the
// set-up processes a measured run starts: given -setup-child, it is one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload so a whole run takes a few seconds.
func tiny(w workload) workload {
	w.seedRecords = 2000
	w.batch = 50
	return w
}

// TestSmokeTracedRunEveryWorkload runs the traced run (load, checks,
// spans and the ladder) of every workload at a tiny size and checks
// that it is correct and reports every per-layer metric, with the
// layers each workload exercises non-zero.
func TestSmokeTracedRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs servers under load")
	}
	exercised := []string{
		"fabric.add_us", "fabric.release_us", "fabric.middles_used_per_add", "fabric.calls",
		"http.handler_us", "http.handler_self_us", "http.respond_us", "switchd.admission_wait_us",
		"obs.status_us", "obs.scrape_us", "obs.scrape_bytes", "client.rtt_self_us", "traffic.gen_self_frac",
	}
	for _, rung := range ladderRungs {
		exercised = append(exercised, "ladder."+rung+".ns_per_op", "ladder."+rung+".allocs_per_op")
	}
	only := map[string][]string{
		"multicast-fanout": {"fabric.branch_us"},
		"durable-semisync": {"durable.wal_append_us", "durable.records_per_fsync", "durable.bytes_per_record",
			"durable.recovery_records", "cluster.commit_wait_us"},
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dir := t.TempDir()
			res, err := tracedRun(ctx, w, options{workload: w.name, seed: 7, seconds: 1, trace: true, workdir: dir}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("run not correct: %+v", res)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, name := range append(exercised, only[w.name]...) {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %+v, want > 0", name, m)
				}
			}
			if v := res.Metrics["durable.recovery_records"].Value; w.durable && v < float64(w.seedRecords) {
				t.Errorf("recovery replayed %g records, want >= %d", v, w.seedRecords)
			}
		})
	}
}

// TestSmokeMeasuredRun runs the untraced run of the smallest workload
// for one second and checks it reports every end-to-end metric.
func TestSmokeMeasuredRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server under load")
	}
	w, err := findWorkload("unicast-cycle")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := measuredRun(context.Background(), w, options{workload: w.name, seed: 3, seconds: 1, workdir: dir}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("run not correct: %+v", res)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s = %+v, want > 0 in %s", d.Name, m, d.Unit)
		}
	}
}
