package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/switchd"
)

const warmup = time.Second

// prepare seeds the WAL of a durable workload once, before anything is
// timed, and returns its directory ("" for other workloads).
func prepare(ctx context.Context, w workload, cfg switchd.Config, o options, runDir string) (string, error) {
	if !w.durable {
		return "", nil
	}
	dir := filepath.Join(runDir, "seed")
	start := time.Now()
	if err := seedWAL(ctx, cfg, dir, w.seedRecords, o.seed); err != nil {
		return "", fmt.Errorf("seeding the WAL: %w", err)
	}
	fmt.Printf("seeded the WAL with %d+ records in %.2fs\n", w.seedRecords, time.Since(start).Seconds())
	return dir, nil
}

// freshServerOpts gives a set-up its own copies of the seeded primary
// and standby directories in runDir, so every set-up replays the same log.
func freshServerOpts(w workload, cfg switchd.Config, seedDir, runDir string) (serverOpts, error) {
	o := serverOpts{cfg: cfg}
	if !w.durable {
		return o, nil
	}
	o.dataDir = filepath.Join(runDir, "primary")
	o.standbyDir = filepath.Join(runDir, "standby")
	for _, d := range []string{o.dataDir, o.standbyDir} {
		if err := copyDir(seedDir, d); err != nil {
			return o, err
		}
	}
	return o, nil
}

// setupProcs is how many cold set-ups a run times; setup_s is their
// median. Replaying the durable workload's log takes far longer than
// building an in-memory server, so it gets fewer.
func setupProcs(w workload) int {
	if w.durable {
		return 3
	}
	return 15
}

// coldSetups times setupProcs(w) set-ups, each the first one in a fresh
// process of this binary (see setupChild), as a wdmserve start is. The
// processes run one after another, and each has ended when it returns.
func coldSetups(ctx context.Context, w workload, o options, seedDir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupProcs(w); i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-child", "-workload", w.name, "-workdir", o.workdir, "-seed-dir", seedDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i, err)
		}
		took, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process %d printed %q", i, out)
		}
		setups = append(setups, took)
	}
	return setups, nil
}

// setupChild is the whole of a set-up process: it builds and starts the
// workload's server once (on a copy of the seeded log, for a durable
// workload), closes it, and prints the set-up time in seconds.
func setupChild(ctx context.Context, w workload, seedDir, runDir string) error {
	so, err := freshServerOpts(w, servingConfig(w, "msw", discardLogger()), seedDir, runDir)
	if err != nil {
		return err
	}
	s, took, err := startServer(ctx, so)
	if err != nil {
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	fmt.Println(took.Seconds())
	return nil
}

// measuredRun is the untraced run: it reports the end-to-end metrics.
func measuredRun(ctx context.Context, w workload, o options, runDir string) (result, error) {
	cfg := servingConfig(w, "msw", discardLogger())
	seedDir, err := prepare(ctx, w, cfg, o, runDir)
	if err != nil {
		return result{}, err
	}
	setups, err := coldSetups(ctx, w, o, seedDir)
	if err != nil {
		return result{}, err
	}
	so, err := freshServerOpts(w, cfg, seedDir, runDir)
	if err != nil {
		return result{}, err
	}
	s, _, err := startServer(ctx, so)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	printStamp(newStamp(w, o, cfg, s.ctl))

	d, err := newLoader(w, o.seed, s.url, nil)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	var bad []string
	if _, err := d.drive(ctx, warmup); err != nil {
		bad = append(bad, "warm-up: "+err.Error())
	}
	d.setSampling(true)
	timed, err := d.drive(ctx, time.Duration(o.seconds)*time.Second)
	d.setSampling(false)
	if err != nil {
		bad = append(bad, "load: "+err.Error())
	}
	// The benchmark's own sample pages are resident too; they grow with
	// throughput, so they are left out of the program's figure.
	rss := peakRSSMB() - float64(d.sampleBytes())/(1<<20)
	bad = append(bad, checkRun(ctx, s, d)...)

	counts, samples := d.counts()
	values := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   timed.opsPerSec(),
		"peak_rss_mb": rss,
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d cold set-ups, one per process", len(setups)),
		"ops_per_s":   fmt.Sprintf("%d answers in %.3fs", timed.mutations, timed.wall.Seconds()),
		"peak_rss_mb": fmt.Sprintf("less %.2f MB of latency samples", float64(d.sampleBytes())/(1<<20)),
	}
	for op, name := range map[opKind]string{opConnect: "connect", opDisconnect: "disconnect", opBranch: "branch", opRead: "read"} {
		if len(samples[op]) == 0 {
			if op == opConnect || op == opDisconnect {
				bad = append(bad, "no "+name+" samples")
			}
			continue
		}
		p50 := exactQuantile(samples[op], 0.50)
		p99 := exactQuantile(samples[op], 0.99)
		values[name+"_p50_us"] = p50.Value
		values[name+"_p99_us"] = p99.Value
		notes[name+"_p50_us"] = fmt.Sprintf("n=%d", p50.N)
		notes[name+"_p99_us"] = fmt.Sprintf("n=%d, %d beyond", p99.N, p99.Beyond)
		if err := p99.checkBeyond(name + "_p99_us"); err != nil {
			bad = append(bad, err.Error())
		}
	}
	offered := counts.OK[opConnect] + counts.Blocked[opConnect] + counts.OK[opBranch] + counts.Blocked[opBranch]
	values["p_block"] = ratio(counts.Blocked[opConnect]+counts.Blocked[opBranch], offered)
	failed := counts.failed() + int64(len(bad))
	values["failed_frac"] = ratio(failed, counts.attempted())
	notes["p_block"] = fmt.Sprintf("of %d offered", offered)
	notes["failed_frac"] = fmt.Sprintf("of %d attempted", counts.attempted())

	printTable("end-to-end ("+w.name+")", append(append([]metricDef(nil), endToEnd...), tableOnly...), values, notes)
	reportChecks(bad)
	return result{
		Correct: len(bad) == 0, Attempted: counts.attempted(), Failed: failed,
		Metrics: pick(endToEnd, values),
	}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func reportChecks(bad []string) {
	if len(bad) == 0 {
		fmt.Println("checks: all passed")
		return
	}
	fmt.Println("checks: FAILED")
	for _, b := range bad {
		fmt.Println("  " + b)
	}
}

// tracedRun reports the per-layer metrics: an untraced phase and a
// traced phase of the same load on one server, a probe of the layers the
// load did not reach, then the ladder.
func tracedRun(ctx context.Context, w workload, o options, runDir string) (result, error) {
	cfg := servingConfig(w, tracedBackend, discardLogger())
	seedDir, err := prepare(ctx, w, cfg, o, runDir)
	if err != nil {
		return result{}, err
	}
	t := newTraceLog(w.replicas)
	fabricTrace.Store(t)
	so, err := freshServerOpts(w, cfg, seedDir, runDir)
	if err != nil {
		return result{}, err
	}
	so.wrapCommit, so.wrapHandler = t.wrapCommitter, t.wrapHandler
	s, _, err := startServer(ctx, so)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	printStamp(newStamp(w, o, cfg, s.ctl))

	d, err := newLoader(w, o.seed, s.url, t)
	if err != nil {
		return result{}, err
	}
	defer d.close()
	var bad []string
	load := func(what string, hold time.Duration) phase {
		p, err := d.drive(ctx, hold)
		if err != nil {
			bad = append(bad, what+": "+err.Error())
		}
		return p
	}
	load("warm-up", warmup)
	// Two fifths of the run each, at most 5 s: enough requests for every
	// per-layer figure while the kept spans stay a few tens of MB.
	hold := min(time.Duration(o.seconds)*time.Second*2/5, 5*time.Second)
	untraced := load("untraced phase", hold)

	values := map[string]float64{}
	var walBefore, walAfter walCounts
	if s.ctl.WAL() != nil {
		walBefore = walCountsOf(s.ctl)
	}
	lag := s.sampleStandbyLag()
	t.on.Store(true)
	workerTimeBefore := d.workerTime
	traced := load("traced phase", hold)
	tracedWorkerTime := d.workerTime - workerTimeBefore
	probeAt := t.now()
	if err := d.probe(ctx); err != nil {
		bad = append(bad, "layer probe: "+err.Error())
	}
	t.on.Store(false)
	values["cluster.standby_lag_records"] = lag()
	if s.ctl.WAL() != nil {
		walAfter = walCountsOf(s.ctl)
		values["durable.records_per_fsync"] = ratio(int64(walAfter.appends-walBefore.appends), int64(walAfter.syncs-walBefore.syncs))
		values["durable.bytes_per_record"] = ratio(walAfter.bytes-walBefore.bytes, int64(walAfter.appends-walBefore.appends))
		values["durable.recovery_records"] = float64(s.ctl.Recovery().Records)
	}
	if s.repl != nil {
		values["cluster.sync_timeouts"] = float64(s.repl.SyncTimeouts())
	}
	bad = append(bad, checkRun(ctx, s, d)...)
	counts, _ := d.counts()
	values["client.retries"] = float64(d.engine.cl.Retries())
	values["trace_overhead_frac"] = 1 - traced.opsPerSec()/untraced.opsPerSec()
	if err := s.close(); err != nil {
		bad = append(bad, "closing the server: "+err.Error())
	}

	ladderHold := min(max(time.Duration(o.seconds)*time.Second/20, 250*time.Millisecond), time.Second)
	rungs, rungLayers, err := runLadder(ctx, w, filepath.Join(runDir, "ladder"), ladderHold)
	if err != nil {
		bad = append(bad, err.Error())
	}

	for rung, r := range rungs {
		values["ladder."+rung+".ns_per_op"] = r.NsPerOp
		values["ladder."+rung+".allocs_per_op"] = r.AllocsPerOp
		values["ladder."+rung+".bytes_per_op"] = r.BytesPerOp
	}

	spans := t.snapshot()
	notes := layerValues(spans, tracedWorkerTime, probeAt, values)
	// A workload without a WAL of its own reports the durable and cluster
	// layers as the ladder's semisync rung saw them, at its shape. When a
	// commit of that rung timed out, it fell back to async replication and
	// the rung's figures are not a semi-sync measurement: they are marked
	// invalid, not reported as clean.
	var invalid []string
	if !w.durable {
		note := "ladder semisync rung"
		if n := rungLayers["cluster.sync_timeouts"]; n > 0 {
			note = fmt.Sprintf("INVALID: ladder semisync rung, %d commits timed out to async", int(n))
			invalid = append(invalid, "durable.* and cluster.* ("+note+")")
		}
		for name, v := range rungLayers {
			values[name] = v
			notes[name] = note
		}
	}
	spanDir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(spanDir, 0o755); err == nil {
		err = t.writeTo(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, o.seed)))
		if err != nil {
			bad = append(bad, "writing spans: "+err.Error())
		}
	}
	printTable(fmt.Sprintf("per-layer (%s, %d spans)", w.name, len(spans)), perLayer, values, notes)
	reportChecks(bad)
	for _, s := range invalid {
		fmt.Println("invalid figures: " + s)
	}
	return result{
		Correct: len(bad) == 0, Attempted: counts.attempted(), Failed: counts.failed() + int64(len(bad)),
		Metrics: pick(perLayer, values),
	}, nil
}

type walCounts struct {
	appends, syncs uint64
	bytes          int64
}

func walCountsOf(ctl *switchd.Controller) walCounts {
	st := ctl.WAL().Stats()
	return walCounts{appends: st.Appends, syncs: st.Syncs, bytes: st.AppendedBytes}
}

// sampleStandbyLag samples how many records the standby trails the
// primary by, every millisecond, until the returned function is called;
// that returns the mean. Without a standby it returns 0.
func (s *server) sampleStandbyLag() func() float64 {
	if s.standby == nil {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				last, applied := s.ctl.WAL().LastSeq(), s.standby.AppliedSeq()
				if last > applied {
					sum += float64(last - applied)
				}
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		if n == 0 {
			return 0
		}
		return sum / n
	}
}

// layerValues derives the span-based per-layer metrics into values and
// returns sample-count notes for the table. workerTime is the engine
// workers' wall time in the traced phase, which ended at probeAt.
func layerValues(spans []span, workerTime time.Duration, probeAt int64, values map[string]float64) map[string]string {
	tr := buildTree(spans)
	named := byName(spans)
	notes := map[string]string{}

	adds := named["fabric.add"]
	var mids []int64
	for _, s := range adds {
		if !s.Blocked {
			mids = append(mids, s.Value)
		}
	}
	values["fabric.add_us"] = meanUs(adds)
	if len(adds) > 0 {
		p99 := exactQuantile(durations(adds), 0.99)
		values["fabric.add_p99_us"] = p99.Value
		notes["fabric.add_p99_us"] = fmt.Sprintf("n=%d, %d beyond", p99.N, p99.Beyond)
	}
	values["fabric.middles_used_per_add"] = meanInt(mids)
	for _, name := range []string{"branch", "release"} {
		values["fabric."+name+"_us"] = meanUs(named["fabric."+name])
	}
	var calls, blocked int
	for _, name := range []string{"fabric.add", "fabric.branch", "fabric.release"} {
		calls += len(named[name])
		for _, s := range named[name] {
			if s.Blocked {
				blocked++
			}
		}
	}
	values["fabric.calls"] = float64(calls)
	values["fabric.blocked"] = float64(blocked)

	handlers := named["http.handler"]
	muts := handlersFor(handlers, mutating)
	var self, respond []int64
	for _, h := range muts {
		self = append(self, tr.self(h))
		for _, c := range tr.children[h.ID] {
			if c.Name == "http.respond" {
				respond = append(respond, c.dur())
			}
		}
	}
	values["http.handler_us"] = meanUs(muts)
	values["http.handler_self_us"] = meanInt(self) / 1e3
	values["http.respond_us"] = meanInt(respond) / 1e3
	notes["http.handler_us"] = fmt.Sprintf("n=%d", len(muts))
	values["switchd.admission_wait_us"] = tr.phaseMeanUs(muts, "admission_wait")
	values["switchd.lock_wait_us"] = tr.phaseMeanUs(muts, "lock_wait")
	values["durable.wal_append_us"] = tr.phaseMeanUs(muts, "wal_append")

	status := handlersFor(handlers, func(p string) bool { return p == "/v1/status" })
	scrapes := handlersFor(handlers, func(p string) bool { return p == "/metrics" })
	var scrapeBytes []int64
	for _, s := range scrapes {
		scrapeBytes = append(scrapeBytes, s.Value)
	}
	values["obs.status_us"] = meanUs(status)
	values["obs.scrape_us"] = meanUs(scrapes)
	values["obs.scrape_bytes"] = meanInt(scrapeBytes)
	notes["obs.scrape_us"] = fmt.Sprintf("n=%d", len(scrapes))

	values["cluster.commit_wait_us"] = meanUs(named["cluster.commit"])

	var rttSelf []int64
	var rttTotal int64
	for _, c := range named["client.request"] {
		if !mutating(c.Path) {
			continue
		}
		rttSelf = append(rttSelf, tr.self(c))
		if c.End <= probeAt {
			rttTotal += c.dur()
		}
	}
	values["client.rtt_self_us"] = meanInt(rttSelf) / 1e3
	if workerTime > 0 {
		values["traffic.gen_self_frac"] = 1 - float64(rttTotal)/float64(workerTime.Nanoseconds())
	}
	return notes
}
