package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
)

// reconcile compares the client-side account of a run (c, every client;
// ec, the engine's client alone) with the traffic engine's own and with
// the server's /v1/metrics counters, and returns one line per
// disagreement. At the sufficient bound nothing may block.
func reconcile(c, ec opCounts, eng engineTotals, srv api.Snapshot) []string {
	var bad []string
	eq := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: %d, want %d", what, got, want))
		}
	}
	eq("server connect_ok vs client 2xx connects", srv.ConnectOK, c.OK[opConnect])
	eq("server branch_ok vs client 2xx branches", srv.BranchOK, c.OK[opBranch])
	eq("server disconnect_ok vs client 2xx disconnects", srv.DisconnectOK, c.OK[opDisconnect])
	eq("server blocked vs client 409s", srv.Blocked, c.Blocked[opConnect]+c.Blocked[opBranch])
	eq("engine routed vs client 2xx connects", eng.Routed, ec.OK[opConnect])
	eq("engine branches vs client branch answers", eng.Branches, ec.OK[opBranch]+ec.Blocked[opBranch])
	eq("engine disconnects vs client 2xx disconnects", eng.Disconnects, ec.OK[opDisconnect])
	eq("server blocked at the sufficient bound", srv.Blocked, 0)
	eq("engine blocked at the sufficient bound", eng.Blocked+eng.BranchBlocked, 0)
	eq("admission rejects", eng.Rejected, 0)
	eq("sessions lost", eng.Lost, 0)
	for op := opKind(0); op < numOps; op++ {
		eq(opNames[op]+" transport errors", c.Transport[op], 0)
		eq(opNames[op]+" non-2xx answers", c.OtherHTTP[op], 0)
	}
	return bad
}

// drained checks that the load left nothing behind: no live session and
// no occupied link on any plane.
func drained(st api.Status) []string {
	var bad []string
	if st.Active != 0 {
		bad = append(bad, fmt.Sprintf("%d live sessions after the load", st.Active))
	}
	for _, f := range st.Fabrics {
		if f.Active != 0 || f.Utilization.InBusy != 0 || f.Utilization.OutBusy != 0 {
			bad = append(bad, fmt.Sprintf("plane %d not idle after the load: %d sessions, %d+%d busy link wavelengths",
				f.Replica, f.Active, f.Utilization.InBusy, f.Utilization.OutBusy))
		}
	}
	return bad
}

// checkRun runs every per-run correctness check against the live server
// once the load has stopped.
func checkRun(ctx context.Context, s *server, d *loader) []string {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	cl := client.New(s.url, client.WithHTTPClient(hc))
	snap, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return []string{"reading /v1/metrics: " + err.Error()}
	}
	st, err := cl.Status(ctx)
	if err != nil {
		return []string{"reading /v1/status: " + err.Error()}
	}
	counts, _ := d.counts()
	engine, _ := d.engine.rec.snapshot()
	bad := append(reconcile(counts, engine, d.totals, snap), drained(st)...)
	if s.repl != nil {
		if n := s.repl.SyncTimeouts(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d semi-sync commits timed out and were acknowledged async", n))
		}
		last := s.ctl.WAL().LastSeq()
		if err := waitFor(ctx, 5*time.Second, func() bool { return s.standby.AppliedSeq() >= last }); err != nil {
			bad = append(bad, fmt.Sprintf("standby applied seq %d never reached the primary's last seq %d",
				s.standby.AppliedSeq(), last))
		}
	}
	return bad
}
