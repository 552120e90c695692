package traffic_test

import (
	"fmt"

	"repro/internal/multistage"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// Dynamic traffic against a deliberately undersized middle stage blocks;
// the same workload at the sufficient bound does not — Theorems 1/2 as
// an in-process run of the traffic engine.
func ExampleSweepM() {
	points, err := traffic.SweepM(traffic.MSweepConfig{
		Base:   multistage.Params{N: 16, K: 2, R: 4, X: 2, Model: wdm.MSW, Lite: true},
		Ms:     []int{2, 13},
		Seeds:  []int64{42},
		Engine: traffic.Config{Arrivals: 2000, Erlangs: 10, MaxFanout: 8},
	})
	if err != nil {
		panic(err)
	}
	for _, pt := range points {
		s := pt.Total()
		fmt.Printf("m=%2d: blocked %v\n", pt.M, s.BlockedTotal() > 0)
	}
	// Output:
	// m= 2: blocked true
	// m=13: blocked false
}
