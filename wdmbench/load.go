package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/switchd/client"
	"repro/internal/traffic"
)

// engineTotals sums the traffic engine's own account over every batch.
type engineTotals struct {
	Routed, Blocked, Rejected, Disconnects, Branches, BranchBlocked, Lost int64
}

func (t *engineTotals) add(s traffic.Stats) {
	t.Routed += int64(s.Routed)
	t.Blocked += int64(s.Blocked)
	t.Rejected += int64(s.Rejected)
	t.Disconnects += int64(s.Disconnects)
	t.Branches += int64(s.Branches)
	t.BranchBlocked += int64(s.BranchBlocked)
	t.Lost += int64(s.Lost)
}

// loadClient is a typed client whose every request goes through a
// recorder, over at most conns keep-alive connections.
type loadClient struct {
	rec *recorder
	tr  *http.Transport
	cl  *client.Client
}

func newLoadClient(url string, conns int, trace *traceLog) (*loadClient, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	rec, err := newRecorder(tr, trace)
	if err != nil {
		return nil, err
	}
	return &loadClient{rec: rec, tr: tr, cl: client.New(url, client.WithHTTPClient(&http.Client{Transport: rec}))}, nil
}

// loader runs the workload's load against one server, in phases.
type loader struct {
	w      workload
	seed   int64
	engine *loadClient
	dash   *loadClient // nil without a dashboard
	extra  *loadClient // the traced run's layer probe
	totals engineTotals
	batch  int
	// workerTime is engine wall time × workers over the phases driven,
	// the denominator of the generator's own share of time.
	workerTime time.Duration
}

func newLoader(w workload, seed int64, url string, trace *traceLog) (*loader, error) {
	eng, err := newLoadClient(url, w.replicas, trace)
	if err != nil {
		return nil, err
	}
	d := &loader{w: w, seed: seed, engine: eng}
	if w.dashboard {
		if d.dash, err = newLoadClient(url, 1, trace); err != nil {
			return nil, err
		}
	}
	if trace != nil {
		if d.extra, err = newLoadClient(url, 1, trace); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// clients are the load's clients that exist.
func (d *loader) clients() []*loadClient {
	var out []*loadClient
	for _, c := range []*loadClient{d.engine, d.dash, d.extra} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

func (d *loader) close() {
	for _, c := range d.clients() {
		c.tr.CloseIdleConnections()
	}
}

// phase is what one load phase achieved.
type phase struct {
	wall      time.Duration
	mutations int64 // 2xx connect, branch and disconnect answers
}

func (p phase) opsPerSec() float64 { return float64(p.mutations) / p.wall.Seconds() }

// drive runs engine batches until hold has passed (finishing the batch
// in flight), with the dashboard polling beside them.
func (d *loader) drive(ctx context.Context, hold time.Duration) (phase, error) {
	before, _ := d.engine.rec.snapshot()
	stop := make(chan struct{})
	var dashErr error
	var wg sync.WaitGroup
	if d.dash != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dashErr = d.poll(ctx, stop)
		}()
	}
	start := time.Now()
	var err error
	for time.Since(start) < hold && err == nil {
		err = d.runBatch(ctx)
	}
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	if err == nil {
		err = dashErr
	}
	after, _ := d.engine.rec.snapshot()
	d.workerTime += wall * time.Duration(d.w.replicas)
	return phase{wall: wall, mutations: after.mutations() - before.mutations()}, err
}

func (d *loader) runBatch(ctx context.Context) error {
	eng, err := traffic.NewEngine(d.w.engineConfig(d.engine.cl, d.seed, d.batch))
	if err != nil {
		return err
	}
	d.batch++
	rep, err := eng.Run(ctx)
	d.totals.add(rep.Stats)
	if err != nil {
		return fmt.Errorf("engine batch %d: %w", d.batch, err)
	}
	return nil
}

// poll reads GET /v1/status and GET /metrics at dashboardHz until stop.
func (d *loader) poll(ctx context.Context, stop <-chan struct{}) error {
	tick := time.NewTicker(time.Second / dashboardHz)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		if _, err := d.dash.cl.Status(ctx); err != nil {
			return fmt.Errorf("dashboard status: %w", err)
		}
		if _, err := d.dash.cl.Prom(ctx); err != nil {
			return fmt.Errorf("dashboard scrape: %w", err)
		}
	}
}

// probe runs, after the traced load, the requests a layer needs to be
// measured on a workload whose load does not reach it: dashboard reads
// where there is no dashboard, and branches where sessions never grow.
// It uses its own client, so the engine's account stays the engine's.
func (d *loader) probe(ctx context.Context) error {
	cl := d.extra.cl
	for i := 0; i < 20; i++ {
		if d.dash == nil {
			if _, err := cl.Status(ctx); err != nil {
				return err
			}
			if _, err := cl.Prom(ctx); err != nil {
				return err
			}
		}
		if d.totals.Branches == 0 {
			cr, err := cl.Connect(ctx, "0.0>1.0", 0)
			if err != nil {
				return err
			}
			if _, err := cl.Branch(ctx, cr.Session, "2.0"); err != nil {
				return err
			}
			if _, err := cl.Disconnect(ctx, cr.Session); err != nil {
				return err
			}
		}
	}
	return nil
}

// setSampling turns raw latency sampling on or off on every client.
func (d *loader) setSampling(on bool) {
	for _, c := range d.clients() {
		c.rec.sampling.Store(on)
	}
}

// sampleBytes is the resident memory every client's samples fill.
func (d *loader) sampleBytes() int64 {
	var n int64
	for _, c := range d.clients() {
		n += c.rec.sampleBytes()
	}
	return n
}

// counts sums every client's outcome counts; samples are the engine's
// mutation latencies and the dashboard's read latencies (the engine's
// one status fetch per batch is not a dashboard read).
func (d *loader) counts() (opCounts, [numOps][]time.Duration) {
	var c opCounts
	for _, cl := range d.clients() {
		cc, _ := cl.rec.snapshot()
		c.add(cc)
	}
	_, s := d.engine.rec.snapshot()
	s[opRead] = nil
	if d.dash != nil {
		_, ds := d.dash.rec.snapshot()
		s[opRead] = ds[opRead]
	}
	return c, s
}
