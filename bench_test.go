// Package repro's top-level benchmarks regenerate every quantitative
// artifact of the paper — Table 1 (capacities, crosspoints, converters),
// Table 2 (crossbar vs multistage cost), the Theorem 1/2 nonblocking
// bounds, and the blocking-probability validation series — as benchmark
// metrics, so `go test -bench . -benchmem` doubles as the experiment
// harness. EXPERIMENTS.md maps each benchmark to its table or figure.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/benes"
	"repro/internal/capacity"
	"repro/internal/crossbar"
	"repro/internal/multistage"
	"repro/internal/obs/span"
	"repro/internal/schedule"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
	"repro/internal/traffic"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// BenchmarkTable1Capacity regenerates Table 1's capacity rows: each
// sub-benchmark reports the full- and any-multicast capacities (as
// log10(x), since the raw counts overflow float64) for one (model, N, k).
func BenchmarkTable1Capacity(b *testing.B) {
	for _, size := range []struct{ n, k int64 }{{2, 2}, {4, 2}, {8, 4}, {16, 8}} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d/k=%d", m, size.n, size.k), func(b *testing.B) {
				var fullDigits, anyDigits int
				for i := 0; i < b.N; i++ {
					fullDigits = len(capacity.Full(m, size.n, size.k).String())
					anyDigits = len(capacity.Any(m, size.n, size.k).String())
				}
				b.ReportMetric(float64(fullDigits), "full-digits")
				b.ReportMetric(float64(anyDigits), "any-digits")
			})
		}
	}
}

// BenchmarkTable1Crosspoints regenerates Table 1's cost rows by building
// the real fabric and reporting audited element counts.
func BenchmarkTable1Crosspoints(b *testing.B) {
	for _, size := range []struct{ n, k int }{{4, 2}, {8, 2}, {8, 4}} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d/k=%d", m, size.n, size.k), func(b *testing.B) {
				var cost crossbar.Cost
				for i := 0; i < b.N; i++ {
					s := crossbar.New(m, wdm.Dim{N: size.n, K: size.k})
					cost = s.Cost()
				}
				b.ReportMetric(float64(cost.Crosspoints), "crosspoints")
				b.ReportMetric(float64(cost.Converters), "converters")
			})
		}
	}
}

// BenchmarkTable2Cost regenerates Table 2: for each model and size it
// reports the crossbar (CB) and MSW-dominant multistage (MS) crosspoint
// and converter counts. The "who wins and by how much" shape — MS
// overtaking CB as N grows, identical MSDW/MAW crosspoints, the converter
// gap between MSDW and MAW — is the paper's claim.
func BenchmarkTable2Cost(b *testing.B) {
	const k = 2
	for _, n := range []int{64, 256, 1024, 4096} {
		r := squareSplit(n)
		nPer := n / r
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/N=%d", m, n), func(b *testing.B) {
				var cb, ms crossbar.Cost
				for i := 0; i < b.N; i++ {
					cb = crossbar.CostFormula(m, wdm.Shape{In: n, Out: n, K: k})
					mm, xx := multistage.SufficientMinM(multistage.MSWDominant, m, nPer, r, k)
					var err error
					ms, err = multistage.CostFormula(multistage.Params{
						N: n, K: k, R: r, M: mm, X: xx, Model: m,
						Construction: multistage.MSWDominant,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cb.Crosspoints), "CB-crosspoints")
				b.ReportMetric(float64(ms.Crosspoints), "MS-crosspoints")
				b.ReportMetric(float64(cb.Converters), "CB-converters")
				b.ReportMetric(float64(ms.Converters), "MS-converters")
				b.ReportMetric(float64(cb.Crosspoints)/float64(ms.Crosspoints), "CB/MS-ratio")
			})
		}
	}
}

// BenchmarkTheorem1Bound reports the minimal middle-stage count and the
// optimizing split limit x for the MSW-dominant construction.
func BenchmarkTheorem1Bound(b *testing.B) {
	for _, nr := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}, {64, 64}} {
		n, r := nr[0], nr[1]
		b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
			var m, x int
			for i := 0; i < b.N; i++ {
				m = multistage.Theorem1MinM(n, r)
				x = multistage.Theorem1BestX(n, r)
			}
			b.ReportMetric(float64(m), "min-m")
			b.ReportMetric(float64(x), "best-x")
			b.ReportMetric(float64(multistage.AsymptoticM(n, r)), "asymptotic-m")
		})
	}
}

// BenchmarkTheorem2Bound does the same for the MAW-dominant construction,
// sweeping k to show its bound's (mild) wavelength dependence.
func BenchmarkTheorem2Bound(b *testing.B) {
	for _, nr := range [][2]int{{8, 8}, {16, 16}, {32, 32}} {
		for _, k := range []int{1, 2, 4, 8} {
			n, r := nr[0], nr[1]
			b.Run(fmt.Sprintf("n=%d/r=%d/k=%d", n, r, k), func(b *testing.B) {
				var m int
				for i := 0; i < b.N; i++ {
					m = multistage.Theorem2MinM(n, r, k)
				}
				b.ReportMetric(float64(m), "min-m")
				b.ReportMetric(float64(multistage.Theorem1MinM(n, r)), "theorem1-m")
			})
		}
	}
}

// BenchmarkBlockingVsM runs the dynamic-traffic validation series: the
// blocking probability at fractions of the sufficient middle-stage bound.
// P_block must be 0 at the bound (metric "pblock-at-bound") and clearly
// positive at a quarter of it — the empirical content of Theorems 1/2.
func BenchmarkBlockingVsM(b *testing.B) {
	base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, frac := range []struct {
		name string
		m    int
	}{
		{"m=quarter", max(1, suffM/4)},
		{"m=half", max(1, suffM/2)},
		{"m=bound", suffM},
	} {
		b.Run(frac.name, func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				points, err := traffic.SweepM(traffic.MSweepConfig{
					Base: base, Ms: []int{frac.m}, Seeds: []int64{int64(i)},
					Engine: traffic.Config{Arrivals: 600, Erlangs: 10, MaxFanout: 8},
				})
				if err != nil {
					b.Fatal(err)
				}
				res := points[0].Total()
				p = res.PBlock()
				if frac.m == suffM && res.BlockedTotal() != 0 {
					b.Fatalf("blocked %d requests at the sufficient bound", res.BlockedTotal())
				}
			}
			b.ReportMetric(float64(frac.m), "m")
			b.ReportMetric(p, "pblock")
		})
	}
}

// BenchmarkCrossbarRouting measures connection setup/teardown throughput
// on the gate-level crossbars (one op = one Add + one Release of a
// fanout-4 multicast).
func BenchmarkCrossbarRouting(b *testing.B) {
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) {
			d := wdm.Dim{N: 16, K: 4}
			s := crossbar.New(m, d)
			c := wdm.Connection{
				Source: wdm.PortWave{Port: 0, Wave: 0},
				Dests: []wdm.PortWave{
					{Port: 1, Wave: 0}, {Port: 5, Wave: 0},
					{Port: 9, Wave: 0}, {Port: 13, Wave: 0},
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := s.Add(c)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Release(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultistageRouting measures end-to-end three-stage routing
// throughput (greedy Lemma 4 middle-stage selection included) for both
// constructions.
func BenchmarkMultistageRouting(b *testing.B) {
	for _, constr := range []multistage.Construction{multistage.MSWDominant, multistage.MAWDominant} {
		b.Run(constr.String(), func(b *testing.B) {
			net, err := multistage.New(multistage.Params{
				N: 64, K: 4, R: 8, Model: wdm.MAW, Construction: constr, Lite: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			c := wdm.Connection{
				Source: wdm.PortWave{Port: 0, Wave: 0},
				Dests: []wdm.PortWave{
					{Port: 9, Wave: 1}, {Port: 18, Wave: 0},
					{Port: 33, Wave: 2}, {Port: 60, Wave: 3},
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := net.Add(c)
				if err != nil {
					b.Fatal(err)
				}
				if err := net.Release(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFabricChurn measures the bare msw fabric under session
// churn at the two shapes the end-to-end benchmark serves. About 24
// sessions stay live: each iteration releases the oldest and adds the
// next request of a seeded script, so one op is one Add plus one
// Release. multicast-fanout draws uniform fanouts 1..32 on N=256, k=4,
// r=16; unicast-cycle is unicast on N=64, k=2, r=8. Both run at the
// sufficient bound, so no request blocks.
//
// With BENCH_FABRIC_JSON=<path> set, each shape writes one row per
// (BENCH_LABEL, GOMAXPROCS) into that file; see `make bench-fabric`.
func BenchmarkFabricChurn(b *testing.B) {
	const live = 24
	for _, sh := range []struct {
		name            string
		n, k, r, fanout int
	}{
		{"multicast-fanout", 256, 4, 16, 32},
		{"unicast-cycle", 64, 2, 8, 1},
	} {
		b.Run(sh.name, func(b *testing.B) {
			net, err := multistage.New(multistage.Params{
				N: sh.n, K: sh.k, R: sh.r, Model: wdm.MSW, Construction: multistage.MSWDominant, Lite: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			script := churnScript(sh.n, sh.k, sh.fanout, live, 4096, 1)
			ids := make([]int, len(script))
			// warm resets the fabric to the script's first live window.
			warm := func() {
				net.Reset()
				for i := 0; i < live; i++ {
					if ids[i], err = net.Add(script[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			warm()
			var before, after runtime.MemStats
			var mallocs, bytes uint64
			measured := func() {
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			next := live
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				if next == len(script) {
					b.StopTimer()
					measured()
					warm()
					next = live
					runtime.ReadMemStats(&before)
					b.StartTimer()
				}
				if err := net.Release(ids[next-live]); err != nil {
					b.Fatal(err)
				}
				if ids[next], err = net.Add(script[next]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.StopTimer()
			measured()
			if path := os.Getenv("BENCH_FABRIC_JSON"); path != "" {
				label := os.Getenv("BENCH_LABEL")
				if label == "" {
					label = "after"
				}
				writeBenchRow(b, path, map[string]any{
					"benchmark":     "BenchmarkFabricChurn/" + sh.name,
					"label":         label,
					"shape":         fmt.Sprintf("N=%d k=%d r=%d, fanout 1-%d, %d live", sh.n, sh.k, sh.r, sh.fanout, live),
					"iterations":    b.N,
					"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
					"allocs_per_op": float64(mallocs) / float64(b.N),
					"bytes_per_op":  float64(bytes) / float64(b.N),
					"nproc":         runtime.NumCPU(),
					"gomaxprocs":    runtime.GOMAXPROCS(0),
					"goos":          runtime.GOOS,
					"goarch":        runtime.GOARCH,
					"go":            runtime.Version(),
				})
			}
		})
	}
}

// BenchmarkHandlerCycle measures one connect + disconnect through the
// controller's HTTP handler in process (no socket, a reused request and
// response writer), with the request tracer at its defaults ("traced")
// and disabled ("untraced"): the gap between the two rows is the cost
// of observing a request. The shapes are BenchmarkFabricChurn's at the
// sufficient bound; multicast-fanout connects one 16-leaf session.
//
// With BENCH_HANDLER_JSON=<path> set, each sub-benchmark writes one row
// per (BENCH_LABEL, GOMAXPROCS) into that file; see `make bench-handler`.
func BenchmarkHandlerCycle(b *testing.B) {
	fanout := make([]string, 16)
	for i := range fanout {
		fanout[i] = fmt.Sprintf("%d.0", i+1)
	}
	for _, sh := range []struct {
		name    string
		n, k, r int
		conn    string
	}{
		{"unicast-cycle", 64, 2, 8, "0.0>1.0"},
		{"multicast-fanout", 256, 4, 16, "0.0>" + strings.Join(fanout, ",")},
	} {
		for _, mode := range []string{"traced", "untraced"} {
			b.Run(sh.name+"/"+mode, func(b *testing.B) {
				cfg := switchd.Config{
					Fabric: multistage.Params{
						N: sh.n, K: sh.k, R: sh.r, Model: wdm.MSW, Construction: multistage.MSWDominant, Lite: true,
					},
					Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
				}
				if mode == "untraced" {
					cfg.Spans = span.Config{Capacity: -1}
				}
				ctl, err := switchd.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer ctl.Close()
				h := ctl.Handler()
				// The bodies the repo's client sends: json.Marshal writes
				// '>' as \u003e, and a disconnect as the appended form below.
				connectBody, err := json.Marshal(api.ConnectRequest{Connection: sh.conn})
				if err != nil {
					b.Fatal(err)
				}
				connectReq := httptest.NewRequest(http.MethodPost, "/v1/connect", nil)
				disconnectReq := httptest.NewRequest(http.MethodPost, "/v1/disconnect", nil)
				var body benchBody
				var w benchWriter
				var disconnectBody []byte
				serve := func(req *http.Request, data []byte) {
					body.Reset(data)
					req.Body = &body
					w.reset()
					h.ServeHTTP(&w, req)
					if w.code != http.StatusOK {
						b.Fatalf("%s: status %d: %s", req.URL.Path, w.code, w.buf)
					}
				}
				cycle := func() {
					serve(connectReq, connectBody)
					id, ok := benchSessionID(w.buf)
					if !ok {
						b.Fatalf("connect response without a session: %s", w.buf)
					}
					disconnectBody = strconv.AppendUint(append(disconnectBody[:0], `{"session":`...), id, 10)
					disconnectBody = append(disconnectBody, '}')
					serve(disconnectReq, disconnectBody)
				}
				for i := 0; i < 100; i++ {
					cycle()
				}
				var before, after runtime.MemStats
				b.ReportAllocs()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					cycle()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if path := os.Getenv("BENCH_HANDLER_JSON"); path != "" {
					label := os.Getenv("BENCH_LABEL")
					if label == "" {
						label = "after"
					}
					writeBenchRow(b, path, map[string]any{
						"benchmark":     "BenchmarkHandlerCycle/" + sh.name + "/" + mode,
						"label":         label,
						"shape":         fmt.Sprintf("N=%d k=%d r=%d, connect %s + disconnect", sh.n, sh.k, sh.r, sh.conn),
						"iterations":    b.N,
						"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
						"allocs_per_op": float64(after.Mallocs-before.Mallocs) / float64(b.N),
						"bytes_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
						"nproc":         runtime.NumCPU(),
						"gomaxprocs":    runtime.GOMAXPROCS(0),
						"goos":          runtime.GOOS,
						"goarch":        runtime.GOARCH,
						"go":            runtime.Version(),
					})
				}
			})
		}
	}
}

// benchBody is a reusable request body.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a reusable in-memory http.ResponseWriter.
type benchWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *benchWriter) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = http.StatusOK
	w.buf = w.buf[:0]
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }

// benchSessionID reads the "session" number out of a connect response.
func benchSessionID(resp []byte) (uint64, bool) {
	const key = `"session": `
	i := bytes.Index(resp, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := resp[i+len(key):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	id, err := strconv.ParseUint(string(rest[:n]), 10, 64)
	return id, err == nil
}

// churnScript returns steps requests for an N-port, k-wavelength MSW
// fabric such that request i is admissible once requests i-live..i-1
// are live and everything older is released (first in, first out).
// Fanouts are uniform on 1..maxFanout; every slot of a request shares
// the source wavelength.
func churnScript(n, k, maxFanout, live, steps int, seed int64) []wdm.Connection {
	rng := rand.New(rand.NewSource(seed))
	busySrc := make([]bool, n*k)
	busyDst := make([]bool, n*k)
	script := make([]wdm.Connection, 0, steps)
	for i := 0; i < steps; i++ {
		if i >= live {
			old := script[i-live]
			busySrc[old.Source.Index(k)] = false
			for _, d := range old.Dests {
				busyDst[d.Index(k)] = false
			}
		}
		var c wdm.Connection
		for {
			c.Source = wdm.PortWave{Port: wdm.Port(rng.Intn(n)), Wave: wdm.Wavelength(rng.Intn(k))}
			if !busySrc[c.Source.Index(k)] {
				break
			}
		}
		fanout := 1 + rng.Intn(maxFanout)
		for _, port := range rng.Perm(n) {
			d := wdm.PortWave{Port: wdm.Port(port), Wave: c.Source.Wave}
			if busyDst[d.Index(k)] {
				continue
			}
			c.Dests = append(c.Dests, d)
			if len(c.Dests) == fanout {
				break
			}
		}
		busySrc[c.Source.Index(k)] = true
		for _, d := range c.Dests {
			busyDst[d.Index(k)] = true
		}
		script = append(script, c)
	}
	return script
}

// writeBenchRow merges row into the JSON array at path, replacing any
// row with the same benchmark, label and gomaxprocs.
func writeBenchRow(b *testing.B, path string, row map[string]any) {
	var rows []map[string]any
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			b.Fatalf("%s: %v", path, err)
		}
	}
	key := func(r map[string]any) string {
		return fmt.Sprint(r["benchmark"], "|", r["label"], "|", r["gomaxprocs"])
	}
	kept := rows[:0]
	for _, r := range rows {
		if key(r) != key(row) {
			kept = append(kept, r)
		}
	}
	rows = append(kept, row)
	sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpticalPropagation measures signal propagation through a fully
// loaded crossbar fabric and reports the worst-path power loss — the
// paper's projected cost of large splitting fabrics (Section 2.3).
func BenchmarkOpticalPropagation(b *testing.B) {
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) {
			d := wdm.Dim{N: 8, K: 2}
			s := crossbar.New(m, d)
			gen := workload.NewGenerator(1, m, d)
			if _, err := s.AddAssignment(gen.Assignment(true, 0)); err != nil {
				b.Fatal(err)
			}
			var loss float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Verify()
				if err != nil {
					b.Fatal(err)
				}
				loss = res.MaxLossDB
			}
			b.ReportMetric(loss, "max-loss-dB")
		})
	}
}

// BenchmarkEnumerationThroughput measures the backtracking assignment
// enumerator (assignments visited per op) — the engine behind every
// exhaustive verification.
func BenchmarkEnumerationThroughput(b *testing.B) {
	d := wdm.Dim{N: 2, K: 2}
	for _, m := range wdm.Models {
		b.Run(m.String(), func(b *testing.B) {
			var count int
			for i := 0; i < b.N; i++ {
				count = 0
				capacity.EnumerateAssignments(m, d, false, func(wdm.Assignment) bool {
					count++
					return true
				})
			}
			b.ReportMetric(float64(count), "assignments")
		})
	}
}

// BenchmarkFabricScale reports construction cost (time and elements) of
// gate-level fabrics as switches grow — the practical limit that makes
// the Lite mode necessary for Table 2 sweeps.
func BenchmarkFabricScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("MAW/N=%d/k=4", n), func(b *testing.B) {
			var elems int
			for i := 0; i < b.N; i++ {
				s := crossbar.New(wdm.MAW, wdm.Dim{N: n, K: 4})
				elems = s.Fabric().Elements()
			}
			b.ReportMetric(float64(elems), "elements")
		})
	}
}

// BenchmarkAblationRoutingStrategy compares the certified greedy
// minimum-intersection middle-module selection (Lemma 4/5) against naive
// first-fit: the metric is the smallest m at which each strategy routes
// heavy dynamic traffic with zero blocking across seeds. DESIGN.md
// ablation 2: the greedy order is what lets m stay at the theorem bound.
func BenchmarkAblationRoutingStrategy(b *testing.B) {
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, strat := range []multistage.Strategy{multistage.GreedyMinIntersection, multistage.FirstFit} {
		b.Run(strat.String(), func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				base := multistage.Params{
					N: 16, K: 2, R: 4, Model: wdm.MSW, Strategy: strat, Lite: true,
				}
				minM = minBlockFreeM(b, base, false, 2*suffM)
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// minBlockFreeM returns the smallest middle-stage count m in [1, hi] at
// which the network built from base (with that m) routes the offline
// workload — 1200 arrivals at 10 Erlangs, fanout up to 8 — without
// blocking for seeds 1, 2 and 3, or hi+1 if none does: the empirical
// analogue of the theorems' minimal m. Blocking is monotone in m only
// statistically, so the scan is linear from 1 upward.
func minBlockFreeM(b *testing.B, base multistage.Params, repack bool, hi int) int {
	for m := 1; m <= hi; m++ {
		points, err := traffic.SweepM(traffic.MSweepConfig{
			Base: base, Ms: []int{m}, Seeds: []int64{1, 2, 3}, Repack: repack,
			Engine: traffic.Config{Arrivals: 1200, Erlangs: 10, MaxFanout: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		if t := points[0].Total(); t.BlockedTotal() == 0 {
			return m
		}
	}
	return hi + 1
}

// BenchmarkAblationLinkSemantics compares the destination-multiset link
// semantics of Eqs. 2-5 (a link is usable while any wavelength is free)
// against plain-set semantics (a touched link is off limits) on the
// MAW-dominant construction. DESIGN.md ablation 3: the multiset
// machinery is what keeps the middle stage small when k > 1.
func BenchmarkAblationLinkSemantics(b *testing.B) {
	suffM, _ := multistage.SufficientMinM(multistage.MAWDominant, wdm.MAW, 4, 4, 4)
	for _, conservative := range []bool{false, true} {
		name := "multiset"
		if conservative {
			name = "plain-set"
		}
		b.Run(name, func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				base := multistage.Params{
					N: 16, K: 4, R: 4, Model: wdm.MAW,
					Construction:      multistage.MAWDominant,
					ConservativeLinks: conservative, Lite: true,
				}
				minM = minBlockFreeM(b, base, false, 6*suffM)
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// BenchmarkUnicastCostHierarchy places the paper's designs in the
// classical unicast cost hierarchy: strictly nonblocking crossbar
// (kN^2) vs the strictly nonblocking multicast Clos of Section 3 vs the
// rearrangeable Beneš baseline (2kN(2log2 N - 1)). The gap between Clos
// and Beneš is the hardware price of strict-sense multicast operation.
func BenchmarkUnicastCostHierarchy(b *testing.B) {
	const k = 2
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var xbar, clos, ben int
			for i := 0; i < b.N; i++ {
				xbar = crossbar.CostFormula(wdm.MSW, wdm.Shape{In: n, Out: n, K: k}).Crosspoints
				r := squareSplit(n)
				mm, xx := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, n/r, r, k)
				cost, err := multistage.CostFormula(multistage.Params{
					N: n, K: k, R: r, M: mm, X: xx, Model: wdm.MSW,
					Construction: multistage.MSWDominant,
				})
				if err != nil {
					b.Fatal(err)
				}
				clos = cost.Crosspoints
				ben = k * benes.Crosspoints(n)
			}
			b.ReportMetric(float64(xbar), "crossbar")
			b.ReportMetric(float64(clos), "clos")
			b.ReportMetric(float64(ben), "benes")
		})
	}
}

// BenchmarkBenesRouting measures the looping algorithm's throughput
// (route one random permutation per op).
func BenchmarkBenesRouting(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net, err := benes.New(n)
			if err != nil {
				b.Fatal(err)
			}
			perms := make([][]int, 8)
			rng := rand.New(rand.NewSource(1))
			for i := range perms {
				perms[i] = rng.Perm(n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.RoutePermutation(perms[i%len(perms)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpticalBenes measures gate-level realization of a permutation
// on the Beneš fabric (route + configure + propagate + check) and
// reports the worst-path loss — depth-proportional, unlike the
// crossbar's width-proportional loss.
func BenchmarkOpticalBenes(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			o, err := benes.NewOptical(n)
			if err != nil {
				b.Fatal(err)
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = (i + n/2 + 1) % n
			}
			var loss float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := o.Realize(perm)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.MaxLossDB
			}
			b.ReportMetric(loss, "max-loss-dB")
		})
	}
}

// BenchmarkLeeVsSimulation compares the measured blocking probability of
// an undersized three-stage network against Lee's independent-link
// approximation evaluated at the *measured* link occupancy — the
// classical analytical model next to the discrete-event ground truth.
// The two should agree in shape (same order of magnitude, both falling
// with m); exact agreement is not expected since Lee assumes
// independence the router's greedy packing violates.
func BenchmarkLeeVsSimulation(b *testing.B) {
	for _, m := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var measured, lee float64
			for i := 0; i < b.N; i++ {
				net, err := multistage.New(multistage.Params{
					N: 16, K: 2, R: 4, M: m, X: 1, Model: wdm.MSW, Lite: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sampler := &utilSampler{Network: net}
				res, err := traffic.RunLocal(net, sampler, traffic.Config{
					Seed: 5, Arrivals: 4000, Erlangs: 8, MaxFanout: 1, // unicast: Lee's setting
				})
				if err != nil {
					b.Fatal(err)
				}
				measured = res.PBlock()
				in, out := sampler.mean()
				lee = analytic.LeeBlocking(in, out, m)
			}
			b.ReportMetric(measured, "pblock-sim")
			b.ReportMetric(lee, "pblock-lee")
		})
	}
}

// utilSampler is a plane that records the network's link occupancy as
// each request arrives, so Lee's approximation is evaluated at the
// load the requests actually met.
type utilSampler struct {
	*multistage.Network
	in, out float64
	n       int
}

func (u *utilSampler) Add(c wdm.Connection) (int, error) {
	ut := u.Network.Utilization()
	u.in += ut.InLinkBusy
	u.out += ut.OutLinkBusy
	u.n++
	return u.Network.Add(c)
}

func (u *utilSampler) mean() (in, out float64) {
	if u.n == 0 {
		return 0, 0
	}
	return u.in / float64(u.n), u.out / float64(u.n)
}

// BenchmarkRecursiveDepthCost evaluates Section 3's recursive
// construction: crosspoints and worst-path optical loss of 3- vs 5-stage
// networks. Nesting pays in gates only once the middle-module size
// passes the three-stage crossover, and always costs optical budget.
func BenchmarkRecursiveDepthCost(b *testing.B) {
	const k = 2
	for _, cfg := range []struct {
		n, r  int
		depth int
	}{
		{4096, 64, 3}, {4096, 64, 5},
		{16384, 1024, 3}, {16384, 1024, 5},
	} {
		b.Run(fmt.Sprintf("N=%d/depth=%d", cfg.n, cfg.depth), func(b *testing.B) {
			var cost crossbar.Cost
			for i := 0; i < b.N; i++ {
				var err error
				cost, err = multistage.CostFormula(multistage.Params{
					N: cfg.n, K: k, R: cfg.r, Model: wdm.MSW, Depth: cfg.depth,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Crosspoints), "crosspoints")
		})
	}
}

// BenchmarkRepack compares strict-sense operation (plain Add) against
// rearrangeable operation (AddWithRepack) on identical hardware: the
// metric is the smallest middle-stage count with zero lost requests.
// Rearrangement rides far below the Theorem 1 bound — the classic
// strict vs rearrangeable trade-off, here measured on WDM multicast.
func BenchmarkRepack(b *testing.B) {
	suffM, _ := multistage.SufficientMinM(multistage.MSWDominant, wdm.MSW, 4, 4, 2)
	for _, repack := range []bool{false, true} {
		name := "strict"
		if repack {
			name = "rearrangeable"
		}
		b.Run(name, func(b *testing.B) {
			var minM int
			for i := 0; i < b.N; i++ {
				base := multistage.Params{N: 16, K: 2, R: 4, Model: wdm.MSW, Lite: true}
				minM = minBlockFreeM(b, base, repack, 2*suffM)
			}
			b.ReportMetric(float64(minM), "empirical-min-m")
			b.ReportMetric(float64(suffM), "theorem-m")
		})
	}
}

// BenchmarkSchedulingRounds quantifies the introduction's motivation:
// rounds needed to carry a fixed batch of overlapping multicasts on an
// electronic network (k=1) vs WDM networks with growing k, per model.
// The metric "rounds" should fall roughly k-fold and be smallest for
// MAW.
func BenchmarkSchedulingRounds(b *testing.B) {
	const n = 16
	// A fixed, congested demand: every port broadcasts to a window of 6
	// ports, twice.
	var reqs []schedule.Request
	for rep := 0; rep < 2; rep++ {
		for s := 0; s < n; s++ {
			r := schedule.Request{Source: wdm.Port(s)}
			for d := 1; d <= 6; d++ {
				r.Dests = append(r.Dests, wdm.Port((s+d)%n))
			}
			reqs = append(reqs, r)
		}
	}
	for _, k := range []int{1, 2, 4} {
		for _, m := range wdm.Models {
			b.Run(fmt.Sprintf("%v/k=%d", m, k), func(b *testing.B) {
				var rounds, lb int
				for i := 0; i < b.N; i++ {
					plan, err := schedule.Schedule(m, wdm.Dim{N: n, K: k}, reqs)
					if err != nil {
						b.Fatal(err)
					}
					rounds = plan.NumRounds()
					lb = schedule.LowerBound(wdm.Dim{N: n, K: k}, reqs)
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(lb), "lower-bound")
			})
		}
	}
}

// squareSplit returns the divisor r of n closest to sqrt(n) (with
// n/r >= 2) — the n = r = N^(1/2) split of Section 3.4.
func squareSplit(n int) int {
	best, bestDist := 2, 1<<62
	for r := 2; r <= n/2; r++ {
		if n%r != 0 || n/r < 2 {
			continue
		}
		d := r*r - n
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = r, d
		}
	}
	return best
}
