package crossbar

import (
	"testing"

	"repro/internal/wdm"
)

// TestLiteAddReleaseAllocs guards a lite switch's bookkeeping: Add
// keeps one normalized copy of the connection, and slot occupancy
// lives in bitsets, so an Add+Release pair allocates that copy and
// nothing per destination slot. The ceiling is the measured count.
func TestLiteAddReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, model := range wdm.Models {
		s := NewLite(model, wdm.Shape{In: 16, Out: 16, K: 4})
		c := wdm.Connection{Source: wdm.PortWave{Port: 3, Wave: 1}}
		for p := 0; p < 8; p++ {
			c.Dests = append(c.Dests, wdm.PortWave{Port: wdm.Port(2 * p), Wave: 1})
		}
		got := testing.AllocsPerRun(200, func() {
			id, err := s.Add(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(id); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.1f allocs per Add+Release", model, got)
		if got > 1 {
			t.Errorf("%v: %.1f allocs per Add+Release, ceiling 1", model, got)
		}
	}
}
