package main

import (
	"strings"
	"testing"

	"repro/internal/multistage"
	"repro/internal/switchd/api"
)

func agreeing() (opCounts, engineTotals, api.Snapshot) {
	var c opCounts
	c.OK[opConnect], c.OK[opBranch], c.OK[opDisconnect], c.OK[opRead] = 10, 4, 10, 7
	eng := engineTotals{Routed: 10, Branches: 4, Disconnects: 10}
	srv := api.Snapshot{ConnectOK: 10, BranchOK: 4, DisconnectOK: 10}
	return c, eng, srv
}

func TestReconcileAgreeing(t *testing.T) {
	c, eng, srv := agreeing()
	if bad := reconcile(c, c, eng, srv); len(bad) != 0 {
		t.Fatalf("agreeing counts reported: %v", bad)
	}
}

func TestReconcileCatchesEachDisagreement(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*opCounts, *engineTotals, *api.Snapshot)
		want   string
	}{
		{"server counted an extra connect", func(c *opCounts, e *engineTotals, s *api.Snapshot) { s.ConnectOK++ }, "connect_ok"},
		{"client lost a disconnect answer", func(c *opCounts, e *engineTotals, s *api.Snapshot) { c.OK[opDisconnect]-- }, "disconnect"},
		{"branch mismatch", func(c *opCounts, e *engineTotals, s *api.Snapshot) { s.BranchOK-- }, "branch_ok"},
		{"block at the bound", func(c *opCounts, e *engineTotals, s *api.Snapshot) {
			c.Blocked[opConnect]++
			s.Blocked++
			e.Blocked++
		}, "sufficient bound"},
		{"engine disagrees with client", func(c *opCounts, e *engineTotals, s *api.Snapshot) { e.Routed-- }, "engine routed"},
		{"transport error", func(c *opCounts, e *engineTotals, s *api.Snapshot) { c.Transport[opRead]++ }, "read transport"},
		{"unexpected status", func(c *opCounts, e *engineTotals, s *api.Snapshot) { c.OtherHTTP[opConnect]++ }, "connect non-2xx"},
	}
	for _, tc := range cases {
		c, eng, srv := agreeing()
		tc.mutate(&c, &eng, &srv)
		bad := reconcile(c, c, eng, srv)
		if !strings.Contains(strings.Join(bad, "\n"), tc.want) {
			t.Errorf("%s: reconcile = %v, want a line mentioning %q", tc.name, bad, tc.want)
		}
	}
}

func TestDrained(t *testing.T) {
	idle := api.Status{Fabrics: []api.FabricStatus{{Replica: 0}, {Replica: 1}}}
	if bad := drained(idle); len(bad) != 0 {
		t.Errorf("idle status reported: %v", bad)
	}
	busy := idle
	busy.Fabrics = []api.FabricStatus{{Replica: 0}, {Replica: 1, Utilization: multistage.Utilization{OutBusy: 2}}}
	if bad := drained(busy); len(bad) != 1 {
		t.Errorf("busy plane: got %v, want one complaint", bad)
	}
	if bad := drained(api.Status{Active: 3}); len(bad) != 1 {
		t.Errorf("live sessions: got %v, want one complaint", bad)
	}
}

func TestOpCountsFailuresIncludeBlocks(t *testing.T) {
	var c opCounts
	c.OK[opConnect] = 5
	c.Blocked[opConnect] = 1
	c.OtherHTTP[opBranch] = 1
	c.Transport[opRead] = 1
	if c.attempted() != 8 || c.failed() != 3 || c.mutations() != 5 {
		t.Errorf("attempted %d failed %d mutations %d, want 8 3 5", c.attempted(), c.failed(), c.mutations())
	}
}

// TestReconcileProbeTraffic checks that requests from a client other than
// the engine's count against the server but not against the engine.
func TestReconcileProbeTraffic(t *testing.T) {
	engine, eng, srv := agreeing()
	all := engine
	all.OK[opConnect]++
	all.OK[opBranch]++
	srv.ConnectOK++
	srv.BranchOK++
	if bad := reconcile(all, engine, eng, srv); len(bad) != 0 {
		t.Fatalf("probe traffic reported: %v", bad)
	}
	if bad := reconcile(all, all, eng, srv); len(bad) == 0 {
		t.Fatal("probe traffic counted as the engine's went unreported")
	}
}
