package main

import (
	"fmt"

	"repro/internal/multistage"
	"repro/internal/switchd/client"
	"repro/internal/traffic"
	"repro/internal/wdm"
	fanout "repro/internal/workload"
)

// workload is one traffic mix against one server shape. Every workload
// serves the msw backend at its sufficient bound (M = 0), so Theorem 1
// says no request blocks and any block is a failure.
type workload struct {
	name     string
	why      string
	n, k, r  int
	replicas int
	// durable adds a WAL data directory seeded with seedRecords records
	// and a semi-sync standby attached over loopback TCP.
	durable     bool
	seedRecords int
	// dashboard adds one connection polling GET /v1/status and
	// GET /metrics at dashboardHz.
	dashboard bool
	// batch is the engine's arrival budget per Run; a run ends with every
	// session torn down, so the load is a sequence of such batches.
	batch int
	// engine fills the traffic-engine config (client, seed and arrival
	// budget are set by the caller).
	engine func(*traffic.Config)
	// withheld, when set, says why BENCHMARK.json does not list the
	// workload; it still runs when named.
	withheld string
}

const dashboardHz = 100

var workloads = []workload{
	{
		name: "unicast-cycle",
		why: "the smallest request, unicast connect then disconnect: the fabric is a small share of the round trip, " +
			"so this isolates the per-request cost above it (JSON, admission, tracer, net/http)",
		n: 64, k: 2, r: 8, replicas: 2, batch: 1000,
		engine: func(c *traffic.Config) {
			c.WorkersPerFabric = 1
			c.MaxFanout = 1
			c.TargetLive = 1
		},
	},
	{
		name: "multicast-fanout",
		why: "multicast sessions of up to 32 leaves grown by AddBranch, where the fabric route search is most of " +
			"the server's time, beside a 100 Hz dashboard whose reads take every plane lock",
		n: 256, k: 4, r: 16, replicas: 1, batch: 600, dashboard: true,
		engine: func(c *traffic.Config) {
			c.WorkersPerFabric = 1
			c.Erlangs = 24
			c.Fanout = fanout.UniformFanout{}
			c.MaxFanout = 32
			c.Churn = traffic.ChurnConfig{Rate: 0.5, GrowBias: 0.5}
		},
	},
	{
		name: "durable-semisync",
		why: "every mutation waits for the WAL group commit and a standby ack, so the durable and cluster " +
			"layers dominate; set-up replays a 100k-record log",
		n: 64, k: 2, r: 8, replicas: 2, batch: 100, durable: true, seedRecords: 100_000,
		withheld: "a standby can leave a group commit unacknowledged until the 2s sync timeout " +
			"(its heartbeat ack omits records applied but not yet acknowledged), which fails the " +
			"run's semi-sync check in roughly a third of 10 s runs",
		engine: func(c *traffic.Config) {
			c.WorkersPerFabric = 1
			c.MaxFanout = 4
			c.Fanout = fanout.Geometric{}
			c.TargetLive = 1
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) params() multistage.Params {
	return multistage.Params{N: w.n, K: w.k, R: w.r, Model: wdm.MSW, Lite: true}
}

// loadConnections is how many connections the load holds open: one per
// engine worker (one worker per plane) plus the dashboard's.
func (w workload) loadConnections() int {
	c := w.replicas
	if w.dashboard {
		c++
	}
	return c
}

// engineConfig is batch number b of the load, seeded from the run seed.
func (w workload) engineConfig(cl *client.Client, seed int64, b int) traffic.Config {
	c := traffic.Config{Client: cl, Seed: seed*1_000_003 + int64(b), Arrivals: w.batch}
	w.engine(&c)
	return c
}
