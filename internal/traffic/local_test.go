package traffic_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// streamOf runs cfg against target with one Erlang-mode worker and
// returns the request stream and the run's stats.
func streamOf(t *testing.T, target traffic.Target, cfg traffic.Config) (string, traffic.Stats) {
	t.Helper()
	var log bytes.Buffer
	cfg.Client = target
	cfg.WorkersPerFabric = 1
	cfg.StreamLog = &log
	eng, err := traffic.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return log.String(), rep.Stats
}

// TestOfflineEqualsServed: one Erlang-mode worker with the same config
// and seed draws the same requests and meets the same answers whether
// the planes sit behind an httptest switchd (one replica) or are driven
// in process — for every registered backend at its bound, for msw below
// its bound (blocked requests included), with churn on and off.
func TestOfflineEqualsServed(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every backend over HTTP")
	}
	type run struct {
		name string
		m    int // 0 = the backend's bound
		x    int
	}
	var runs []run
	for _, name := range backend.Names() {
		runs = append(runs, run{name: name})
	}
	runs = append(runs, run{name: "msw", m: 3, x: 1})
	for _, r := range runs {
		for _, churn := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/m=%d/churn=%g", r.name, r.m, churn), func(t *testing.T) {
				desc, err := backend.Get(r.name)
				if err != nil {
					t.Fatal(err)
				}
				p := multistage.Params{N: 16, K: 2, R: 4, M: r.m, X: r.x, Model: wdm.MSW, Lite: true}
				cfg := traffic.Config{
					Seed: 9, Arrivals: 1500, Erlangs: 4, MaxFanout: 4,
					Churn: traffic.ChurnConfig{Rate: churn},
				}
				if r.name == "mesh" {
					// The ring guarantees k concurrent unicast sessions.
					cfg.MaxFanout, cfg.MaxLive = 1, 2
				}

				ctl, err := switchd.New(switchd.Config{
					Fabric: p, Backend: r.name, Replicas: 1, Shards: 4, Logger: quietLogger(),
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(ctl.Handler())
				defer srv.Close()
				served, servedStats := streamOf(t, client.New(srv.URL, client.WithHTTPClient(srv.Client())), cfg)

				norm, err := desc.Normalize(p)
				if err != nil {
					t.Fatal(err)
				}
				plane, err := desc.New(norm)
				if err != nil {
					t.Fatal(err)
				}
				local, _ := streamOf(t, traffic.NewLocal(traffic.PlaneStatus(r.name, plane.Params()), plane), cfg)

				if served != local {
					t.Fatalf("streams differ (served %d bytes, in process %d bytes):\n--- served\n%.600s\n--- in process\n%.600s",
						len(served), len(local), served, local)
				}
				if servedStats.Connects == 0 {
					t.Fatal("nothing offered")
				}
				if churn == 0 && (r.m != 0) != (servedStats.BlockedTotal() > 0) {
					t.Errorf("blocked=%d with m=%d, want blocking exactly below the bound", servedStats.BlockedTotal(), r.m)
				}
				if plane.Len() != 0 {
					t.Errorf("%d connections left in process", plane.Len())
				}
			})
		}
	}
}

// TestLocalMaxRateSharedPlane runs the max-rate closed loop with two
// workers on one in-process plane: the target must serialize the
// plane (run under -race), and at the bound nothing blocks.
func TestLocalMaxRateSharedPlane(t *testing.T) {
	net, err := multistage.New(msw16())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := traffic.NewEngine(traffic.Config{
		Client:           traffic.NewLocal(traffic.PlaneStatus("msw", net.Params()), net),
		Seed:             3,
		Arrivals:         2000,
		WorkersPerFabric: 2,
		MaxFanout:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats; s.Blocked != 0 || s.Routed == 0 || s.Disconnects != s.Routed {
		t.Errorf("blocked=%d routed=%d disconnects=%d, want 0 blocked and every session released",
			s.Blocked, s.Routed, s.Disconnects)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	if net.Len() != 0 {
		t.Errorf("%d connections left", net.Len())
	}
}
