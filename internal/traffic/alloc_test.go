package traffic

import (
	"context"
	"testing"

	"repro/internal/multistage"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// quietPlane answers every call without allocating: routes succeed,
// every branch grow blocks.
type quietPlane struct{}

func (quietPlane) Add(wdm.Connection) (int, error)      { return 0, nil }
func (quietPlane) Release(int) error                    { return nil }
func (quietPlane) AddBranch(int, ...wdm.PortWave) error { return multistage.ErrBlocked }

// TestNoStreamFormattingWithoutLog pins that a run without a StreamLog
// formats nothing for it: a disconnect against an in-process target
// allocates nothing, and a blocked churn grow allocates no more than
// its request (the grow-slot pick, the slot codec, the target call and
// the classification of its answer).
func TestNoStreamFormattingWithoutLog(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ctx := context.Background()
	local := NewLocal(api.Status{Model: "MSW", N: 4, K: 1}, quietPlane{})
	eng, err := NewEngine(Config{Client: local, Erlangs: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := local.Status(ctx)
	w := newWorker(&eng.cfg, st, wdm.MSW, 0, nil, &eng.prog)
	sess := liveSession{conn: wdm.Connection{
		Source: wdm.PortWave{Port: 0},
		Dests:  []wdm.PortWave{{Port: 1}},
	}}
	take := func() {
		w.freeSrc.Take(sess.conn.Source)
		w.freeDst.Take(sess.conn.Dests[0])
	}
	take()
	if got := testing.AllocsPerRun(200, func() {
		w.disconnect(ctx, sess)
		take()
	}); got != 0 {
		t.Errorf("disconnect without a stream log: %v allocs, want 0", got)
	}

	grow := testing.AllocsPerRun(200, func() { w.churnGrow(ctx, sess, 1) })
	request := testing.AllocsPerRun(200, func() {
		slot, _ := w.pickGrowSlot(sess.conn)
		_, err := w.cl.Branch(ctx, sess.id, wdm.FormatSlot(slot))
		_ = client.IsBlocked(err)
	})
	if grow > request {
		t.Errorf("blocked churn grow without a stream log: %v allocs, its request alone %v", grow, request)
	}
	if w.stats.BranchBlocked == 0 {
		t.Fatal("churn grow never reached the plane")
	}
}
