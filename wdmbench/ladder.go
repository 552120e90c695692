package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fabric/backend"
	obsspan "repro/internal/obs/span"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// The ladder runs the same unicast connect+disconnect at each layer of
// the serving path, on the workload's fabric shape, one caller at a
// time. The difference between two rungs is the cost of the layer
// between them.
var ladderRungs = []string{"backend", "controller", "handler", "handler_untraced", "loopback", "wal", "semisync"}

// rungResult is one rung's cost per connect+disconnect pair.
type rungResult struct {
	NsPerOp, AllocsPerOp, BytesPerOp float64
}

// measureRung runs op for at least hold (after a short warm-up) and
// divides wall time and the process's heap allocations by the count.
func measureRung(hold time.Duration, op func() error) (rungResult, error) {
	for i := 0; i < 20; i++ {
		if err := op(); err != nil {
			return rungResult{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < hold {
		if err := op(); err != nil {
			return rungResult{}, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return rungResult{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// ladderConn is the one request every rung repeats.
var ladderConn = wdm.Connection{
	Source: wdm.PortWave{Port: 0, Wave: 0},
	Dests:  []wdm.PortWave{{Port: 1, Wave: 0}},
}

// runLadder measures every rung for hold each. dir holds the WAL rungs'
// data directories. It also returns the durable and cluster layer
// metrics the semisync rung saw.
func runLadder(ctx context.Context, w workload, dir string, hold time.Duration) (map[string]rungResult, map[string]float64, error) {
	out := map[string]rungResult{}
	var layers map[string]float64
	cfg := servingConfig(w, "msw", discardLogger())
	for _, rung := range ladderRungs {
		var res rungResult
		var err error
		switch rung {
		case "backend":
			res, err = ladderBackend(cfg, hold)
		case "controller":
			res, err = ladderController(ctx, cfg, hold)
		case "handler":
			res, err = ladderHandler(cfg, hold)
		case "handler_untraced":
			untraced := cfg
			untraced.Spans = obsspan.Config{Capacity: -1}
			res, err = ladderHandler(untraced, hold)
		case "loopback":
			res, _, err = ladderLoopback(ctx, serverOpts{cfg: cfg}, hold)
		case "wal", "semisync":
			o := serverOpts{cfg: cfg, dataDir: filepath.Join(dir, rung+"-primary")}
			if rung == "semisync" {
				o.standbyDir = filepath.Join(dir, rung+"-standby")
			}
			res, layers, err = ladderLoopback(ctx, o, hold)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("ladder rung %s: %w", rung, err)
		}
		out[rung] = res
	}
	return out, layers, nil
}

func ladderBackend(cfg switchd.Config, hold time.Duration) (rungResult, error) {
	desc, err := backend.Get(cfg.Backend)
	if err != nil {
		return rungResult{}, err
	}
	p, err := desc.Normalize(cfg.Fabric)
	if err != nil {
		return rungResult{}, err
	}
	b, err := desc.New(p)
	if err != nil {
		return rungResult{}, err
	}
	return measureRung(hold, func() error {
		id, err := b.Add(ladderConn)
		if err != nil {
			return err
		}
		return b.Release(id)
	})
}

func ladderController(ctx context.Context, cfg switchd.Config, hold time.Duration) (rungResult, error) {
	ctl, err := switchd.New(cfg)
	if err != nil {
		return rungResult{}, err
	}
	defer ctl.Close()
	return measureRung(hold, func() error {
		id, _, err := ctl.Connect(ctx, ladderConn, -1)
		if err != nil {
			return err
		}
		return ctl.Disconnect(ctx, id)
	})
}

// ladderHandler calls the controller's HTTP handler in process, with no
// socket.
func ladderHandler(cfg switchd.Config, hold time.Duration) (rungResult, error) {
	ctl, err := switchd.New(cfg)
	if err != nil {
		return rungResult{}, err
	}
	defer ctl.Close()
	h := ctl.Handler()
	connectBody, err := json.Marshal(api.ConnectRequest{Connection: wdm.FormatConnection(ladderConn)})
	if err != nil {
		return rungResult{}, err
	}
	serve := func(path string, body []byte) (*httptest.ResponseRecorder, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", path, rr.Code, rr.Body.Bytes())
		}
		return rr, nil
	}
	return measureRung(hold, func() error {
		rr, err := serve("/v1/connect", connectBody)
		if err != nil {
			return err
		}
		var cr api.ConnectResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &cr); err != nil {
			return err
		}
		body, err := json.Marshal(api.DisconnectRequest{Session: cr.Session})
		if err != nil {
			return err
		}
		_, err = serve("/v1/disconnect", body)
		return err
	})
}

// ladderLoopback runs the pair through the typed client over a real
// loopback socket against a full server (with a WAL, and a semi-sync
// standby, when o asks for them). With a standby it also returns the
// durable and cluster layer metrics of the rung: the mean wal_append
// phase, group-commit batching, the committer's wait, semi-sync
// timeouts and the standby's lag.
func ladderLoopback(ctx context.Context, o serverOpts, hold time.Duration) (rungResult, map[string]float64, error) {
	for _, d := range []string{o.dataDir, o.standbyDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return rungResult{}, nil, err
			}
		}
	}
	var commitNs, commits atomic.Int64
	o.wrapCommit = func(commit func(uint64)) func(uint64) {
		return func(upTo uint64) {
			start := time.Now()
			commit(upTo)
			commitNs.Add(int64(time.Since(start)))
			commits.Add(1)
		}
	}
	s, _, err := startServer(ctx, o)
	if err != nil {
		return rungResult{}, nil, err
	}
	defer s.close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	cl := client.New(s.url, client.WithHTTPClient(hc))
	conn := wdm.FormatConnection(ladderConn)
	// With a standby, each answer's Server-Timing wal_append phase is
	// summed; the other rungs skip the parse.
	var walNs, requests int64
	var timing string
	reqCtx := ctx
	note := func() {}
	var before walCounts
	lag := func() float64 { return 0 }
	if s.standby != nil {
		reqCtx = client.ContextWithServerTiming(ctx, &timing)
		note = func() {
			for _, p := range parseServerTiming(timing) {
				if p.name == "wal_append" {
					walNs += p.ns
				}
			}
			requests++
		}
		before = walCountsOf(s.ctl)
		lag = s.sampleStandbyLag()
	}
	res, err := measureRung(hold, func() error {
		cr, err := cl.Connect(reqCtx, conn, -1)
		if err != nil {
			return err
		}
		note()
		if _, err = cl.Disconnect(reqCtx, cr.Session); err != nil {
			return err
		}
		note()
		return nil
	})
	meanLag := lag()
	if err != nil || s.standby == nil {
		return res, nil, err
	}
	after := walCountsOf(s.ctl)
	appends := int64(after.appends - before.appends)
	return res, map[string]float64{
		"durable.wal_append_us":       float64(walNs) / float64(requests) / 1e3,
		"durable.records_per_fsync":   ratio(appends, int64(after.syncs-before.syncs)),
		"durable.bytes_per_record":    ratio(after.bytes-before.bytes, appends),
		"cluster.commit_wait_us":      float64(commitNs.Load()) / float64(max(commits.Load(), 1)) / 1e3,
		"cluster.sync_timeouts":       float64(s.repl.SyncTimeouts()),
		"cluster.standby_lag_records": meanLag,
	}, nil
}
