package traffic_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"

	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// TestBenchmarkStreamGolden pins the request stream of the repo
// benchmark's two listed workloads: the engine configurations
// wdmbench/workload.go builds for unicast-cycle and multicast-fanout
// (run seed 1, first batch), each run against an httptest switchd of
// that workload's shape. wdmbench is its own module, so the
// configurations are restated here and must follow workload.go. The
// digests were taken before the engine's target became an interface; a
// change to how the engine draws or logs requests shows up here as a
// new digest.
func TestBenchmarkStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both benchmark workloads end to end")
	}
	const seed = 1*1_000_003 + 0 // wdmbench engineConfig: run seed 1, batch 0
	for _, tc := range []struct {
		name        string
		n, k, r     int
		replicas    int
		cfg         traffic.Config
		wantSHA256  string
		wantConnect int
	}{
		{
			name: "unicast-cycle", n: 64, k: 2, r: 8, replicas: 2,
			cfg: traffic.Config{
				Seed: seed, Arrivals: 1000,
				WorkersPerFabric: 1, MaxFanout: 1, TargetLive: 1,
			},
			wantSHA256: "639cd5a32ceacc05f61149dd748c3a79e7553822166011de624851d3cd96d374",
		},
		{
			name: "multicast-fanout", n: 256, k: 4, r: 16, replicas: 1,
			cfg: traffic.Config{
				Seed: seed, Arrivals: 600,
				WorkersPerFabric: 1, Erlangs: 24,
				Fanout: workload.UniformFanout{}, MaxFanout: 32,
				Churn: traffic.ChurnConfig{Rate: 0.5, GrowBias: 0.5},
			},
			wantSHA256: "d37424516b7eee1d6ecd6b652eadeb5eec53666c0e2fd5f5007911de70590429",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, err := switchd.New(switchd.Config{
				Fabric: multistage.Params{
					N: tc.n, K: tc.k, R: tc.r, Model: wdm.MSW, Lite: true,
				},
				Backend:  "msw",
				Replicas: tc.replicas,
				Shards:   16,
				Logger:   quietLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(ctl.Handler())
			defer srv.Close()
			var log bytes.Buffer
			cfg := tc.cfg
			cfg.Client = client.New(srv.URL, client.WithHTTPClient(srv.Client()))
			cfg.StreamLog = &log
			eng, err := traffic.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.BlockedTotal() != 0 {
				t.Errorf("blocked %d at the bound", rep.Stats.BlockedTotal())
			}
			sum := sha256.Sum256(log.Bytes())
			got := hex.EncodeToString(sum[:])
			t.Logf("%s: %d bytes, connects=%d sha256=%s", tc.name, log.Len(), rep.Stats.Connects, got)
			if got != tc.wantSHA256 {
				t.Errorf("stream digest %s, want %s", got, tc.wantSHA256)
			}
		})
	}
}
