package traffic_test

import (
	"testing"
	"time"

	"repro/internal/traffic"
)

// TestParseChaos pins the chaos schedule grammar used by the load
// generator's -chaos flag.
func TestParseChaos(t *testing.T) {
	events, err := traffic.ParseChaos("repair@30s f0:m2, fail@10s f1:m0")
	if err != nil {
		t.Fatalf("ParseChaos: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	// Sorted by offset regardless of input order.
	if events[0].Action != traffic.ChaosFail || events[0].At != 10*time.Second ||
		events[0].Fabric != 1 || events[0].Middle != 0 {
		t.Fatalf("event 0 = %+v, want fail@10s f1:m0", events[0])
	}
	if events[1].Action != traffic.ChaosRepair || events[1].At != 30*time.Second ||
		events[1].Fabric != 0 || events[1].Middle != 2 {
		t.Fatalf("event 1 = %+v, want repair@30s f0:m2", events[1])
	}
	if ev, err := traffic.ParseChaos(""); err != nil || len(ev) != 0 {
		t.Fatalf("empty schedule: %v, %v", ev, err)
	}
	for _, bad := range []string{"zap@10s f0:m1", "fail@x f0:m1", "fail@10s f0", "fail@10s m1:f0"} {
		if _, err := traffic.ParseChaos(bad); err == nil {
			t.Errorf("traffic.ParseChaos(%q) accepted", bad)
		}
	}
}
