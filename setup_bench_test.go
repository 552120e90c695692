package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/switchd"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// setupProcesses is how many fresh processes each set-up row is the
// median of.
const setupProcesses = 15

// setupShape is one BENCHMARK.json server shape, served as the
// end-to-end benchmark and wdmserve serve it: msw at the sufficient
// bound, lite planes.
type setupShape struct {
	name           string
	n, k, r, plane int
}

var setupShapes = []setupShape{
	{"multicast-fanout", 256, 4, 16, 1},
	{"unicast-cycle", 64, 2, 8, 2},
}

func findSetupShape(name string) (setupShape, bool) {
	for _, sh := range setupShapes {
		if sh.name == name {
			return sh, true
		}
	}
	return setupShape{}, false
}

// servingConfig is wdmserve's default serving configuration for the
// shape: mutex/block profiling at 1-in-100 and 100µs with 30s
// snapshots, a 1s history self-scrape, 16 session shards.
func (sh setupShape) servingConfig() switchd.Config {
	return switchd.Config{
		Fabric:   multistage.Params{N: sh.n, K: sh.k, R: sh.r, Model: wdm.MSW, Lite: true},
		Backend:  "msw",
		Replicas: sh.plane,
		Shards:   16,
		Prof: prof.Config{
			MutexFraction: 100,
			BlockRateNs:   100_000,
			Interval:      30 * time.Second,
		},
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		HistoryInterval: time.Second,
	}
}

// TestMain lets the test binary stand in for a cold server start: given
// -setup-child KIND SHAPE, the process times one set-up phase group
// (see setupChild) and exits.
func TestMain(m *testing.M) {
	if len(os.Args) == 4 && os.Args[1] == "-setup-child" {
		if err := setupChild(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "setup child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// setupChild times, as the first work of a fresh process, one group of
// set-up phases for the shape and prints them as a JSON object of phase
// name to seconds:
//
//	prof   prof.Start with the serving profiler config
//	planes backend Normalize plus New for every plane
//	serve  switchd.New; then the handler and a loopback listener; then
//	       the first GET /v1/status, answered 200
//
// Each group gets its own processes, so every phase is timed as cold as
// it is at a server's start.
func setupChild(kind, shapeName string) error {
	sh, ok := findSetupShape(shapeName)
	if !ok {
		return fmt.Errorf("unknown shape %q", shapeName)
	}
	cfg := sh.servingConfig()
	phases := map[string]float64{}
	switch kind {
	case "prof":
		start := time.Now()
		prof.Start(cfg.Prof) // the process exits next; nothing to Stop
		phases["prof.Start"] = time.Since(start).Seconds()
	case "planes":
		start := time.Now()
		desc, err := backend.Get(cfg.Backend)
		if err != nil {
			return err
		}
		norm, err := desc.Normalize(cfg.Fabric)
		if err != nil {
			return err
		}
		for i := 0; i < sh.plane; i++ {
			if _, err := desc.New(norm); err != nil {
				return err
			}
		}
		phases["fabric.planes"] = time.Since(start).Seconds()
	case "serve":
		start := time.Now()
		ctl, err := switchd.New(cfg)
		if err != nil {
			return err
		}
		defer ctl.Close()
		built := time.Now()
		mux := http.NewServeMux()
		mux.Handle("/", ctl.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: obs.WithRequestLog(mux, cfg.Logger)}
		go srv.Serve(ln)
		defer srv.Close()
		listening := time.Now()
		probe := &http.Client{Transport: &http.Transport{}}
		if _, err := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(probe)).Status(context.Background()); err != nil {
			return err
		}
		answered := time.Now()
		phases["switchd.New"] = built.Sub(start).Seconds()
		phases["handler+listener"] = listening.Sub(built).Seconds()
		phases["first_status"] = answered.Sub(listening).Seconds()
	default:
		return fmt.Errorf("unknown phase group %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(phases)
}

// BenchmarkColdSetup records a server's cold start phase by phase, on
// both BENCHMARK.json shapes. Each phase row is the median of
// setupProcesses fresh processes of this test binary (see setupChild);
// the wdmserve row times a built wdmserve from exec to the first 200 on
// GET /v1/status. One iteration does the whole record, so run it with
// -benchtime 1x.
//
// With BENCH_SETUP_JSON=<path> set, each (shape, phase) writes one row
// per (BENCH_LABEL, GOMAXPROCS) into that file; see `make bench-setup`.
func BenchmarkColdSetup(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	serve := filepath.Join(b.TempDir(), "wdmserve")
	if out, err := exec.Command("go", "build", "-o", serve, "./cmd/wdmserve").CombinedOutput(); err != nil {
		b.Fatalf("building wdmserve: %v\n%s", err, out)
	}
	for _, sh := range setupShapes {
		b.Run(sh.name, func(b *testing.B) {
			samples := map[string][]float64{}
			for i := 0; i < b.N; i++ {
				for _, kind := range []string{"prof", "planes", "serve"} {
					for p := 0; p < setupProcesses; p++ {
						out, err := exec.Command(exe, "-setup-child", kind, sh.name).Output()
						if err != nil {
							b.Fatalf("set-up child %s: %v", kind, err)
						}
						var phases map[string]float64
						if err := json.Unmarshal(out, &phases); err != nil {
							b.Fatalf("set-up child %s printed %q", kind, out)
						}
						for name, s := range phases {
							samples[name] = append(samples[name], s)
						}
					}
				}
				for p := 0; p < setupProcesses; p++ {
					samples["wdmserve.exec_to_ready"] = append(samples["wdmserve.exec_to_ready"], wdmserveReady(b, serve, sh))
				}
			}
			for name, s := range samples {
				q := quartilesMs(s)
				b.ReportMetric(q[1], name+"-ms")
				path := os.Getenv("BENCH_SETUP_JSON")
				if path == "" {
					continue
				}
				label := os.Getenv("BENCH_LABEL")
				if label == "" {
					label = "after"
				}
				writeBenchRow(b, path, map[string]any{
					"benchmark":  "BenchmarkColdSetup/" + sh.name + "/" + name,
					"label":      label,
					"shape":      fmt.Sprintf("N=%d k=%d r=%d, %d plane(s), msw at the bound", sh.n, sh.k, sh.r, sh.plane),
					"phase":      name,
					"processes":  len(s),
					"median_ms":  q[1],
					"p25_ms":     q[0],
					"p75_ms":     q[2],
					"nproc":      runtime.NumCPU(),
					"gomaxprocs": runtime.GOMAXPROCS(0),
					"goos":       runtime.GOOS,
					"goarch":     runtime.GOARCH,
					"go":         runtime.Version(),
				})
			}
		})
	}
}

// wdmserveReady launches the wdmserve binary at serve on the shape and
// returns the seconds from exec to its first 200 on GET /v1/status,
// polled every 100µs. The server is killed before it returns.
func wdmserveReady(b *testing.B, serve string, sh setupShape) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(serve, "-addr", addr, "-n", strconv.Itoa(sh.n), "-k", strconv.Itoa(sh.k),
		"-r", strconv.Itoa(sh.r), "-replicas", strconv.Itoa(sh.plane))
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	for time.Since(start) < 10*time.Second {
		if resp, err := probe.Get("http://" + addr + "/v1/status"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start).Seconds()
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.Fatalf("wdmserve on %s not ready after 10s", addr)
	return 0
}

// quartilesMs returns the 25th, 50th and 75th percentiles of seconds,
// in milliseconds (nearest rank).
func quartilesMs(seconds []float64) [3]float64 {
	s := append([]float64(nil), seconds...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		q[i] = s[int(p*float64(len(s)-1)+0.5)] * 1e3
	}
	return q
}
