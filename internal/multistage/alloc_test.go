package multistage

import (
	"testing"

	"repro/internal/wdm"
)

// TestAddReleaseAllocs guards the routing path's allocation count: an
// msw Add+Release pair allocates the route record (connection clone,
// record, legs, hops) and one normalized sub-connection per module it
// installs, and nothing per candidate middle, per covered output module
// or per occupancy lookup. The ceilings are the measured counts.
func TestAddReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	fanout16 := wdm.Connection{Source: pw(0, 0)}
	for p := 0; p < 16; p++ {
		// One destination in each of the 16 output modules.
		fanout16.Dests = append(fanout16.Dests, pw(16*p+1, 0))
	}
	for _, tc := range []struct {
		name string
		p    Params
		c    wdm.Connection
		max  float64
	}{
		{"multicast-fanout", Params{N: 256, K: 4, R: 16, Model: wdm.MSW, Lite: true}, fanout16, 22},
		{"unicast-cycle", Params{N: 64, K: 2, R: 8, Model: wdm.MSW, Lite: true}, conn(pw(0, 0), pw(1, 0)), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := mustNetwork(t, tc.p)
			got := testing.AllocsPerRun(200, func() {
				id, err := net.Add(tc.c)
				if err != nil {
					t.Fatal(err)
				}
				if err := net.Release(id); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs per Add+Release", tc.name, got)
			if got > tc.max {
				t.Errorf("%s: %.1f allocs per Add+Release, ceiling %.0f", tc.name, got, tc.max)
			}
		})
	}
}
