package prof

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// churnMutex produces real mutex contention so the mutex profile has
// something to record at MutexFraction=1.
func churnMutex() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				mu.Lock()
				runtime.Gosched()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestHarnessMutexProfileNonEmpty(t *testing.T) {
	h := Start(Config{MutexFraction: 1})
	defer h.Stop()
	churnMutex()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=mutex&debug=1", nil))
	if rec.Code != 200 {
		t.Fatalf("mutex debug profile: status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "mutex") || len(body) == 0 {
		t.Fatalf("mutex profile text looks empty:\n%s", body)
	}

	// Binary form, captured on demand (no background loop running).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=mutex", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("binary mutex profile: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("binary profile Content-Type = %q", got)
	}
}

func TestHarnessRingAndIndex(t *testing.T) {
	h := Start(Config{Ring: 2})
	defer h.Stop()

	for i := 0; i < 3; i++ {
		h.captureToRing("goroutine")
	}
	// Ring capped at 2, newest first via n=0.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=goroutine&n=1", nil))
	if rec.Code != 200 {
		t.Fatalf("ring snapshot n=1: status %d", rec.Code)
	}
	if rec.Header().Get("X-Profile-Time") == "" {
		t.Fatal("ring snapshot missing X-Profile-Time")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=goroutine&n=2", nil))
	if rec.Code != 404 {
		t.Fatalf("evicted snapshot n=2: status %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof", nil))
	var idx []indexEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("index does not decode: %v", err)
	}
	found := false
	for _, e := range idx {
		if e.Type == "goroutine" {
			found = true
			if e.Snapshots != 2 {
				t.Fatalf("goroutine ring reports %d snapshots, want 2", e.Snapshots)
			}
		}
	}
	if !found {
		t.Fatalf("index missing goroutine entry: %+v", idx)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=nonsense", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown type: status %d, want 400", rec.Code)
	}
}

func TestHarnessBackgroundLoop(t *testing.T) {
	h := Start(Config{Interval: 5 * time.Millisecond, Ring: 4})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := h.nth("heap", 0); ok {
			break
		}
		if time.Now().After(deadline) {
			h.Stop()
			t.Fatal("background loop captured no heap snapshot within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.Stop()
}

func TestStopRestoresProfilerRates(t *testing.T) {
	before := runtime.SetMutexProfileFraction(-1)
	h := Start(Config{MutexFraction: 50, BlockRateNs: 1000})
	if got := runtime.SetMutexProfileFraction(-1); got != 50 {
		t.Fatalf("mutex fraction while running = %d, want 50", got)
	}
	h.Stop()
	if got := runtime.SetMutexProfileFraction(-1); got != before {
		t.Fatalf("mutex fraction after Stop = %d, want restored %d", got, before)
	}
}

// gatedRate stands in for runtime.SetBlockProfileRate: a positive rate
// blocks until release closes, as the runtime's first tick calibration
// sleeps. Every call is recorded once it returns.
type gatedRate struct {
	entered chan int
	release chan struct{}

	mu    sync.Mutex
	calls []int
}

func installGatedRate(t *testing.T) *gatedRate {
	g := &gatedRate{entered: make(chan int, 1), release: make(chan struct{})}
	saved := setBlockRate
	setBlockRate = func(rate int) {
		if rate > 0 {
			g.entered <- rate
			<-g.release
		}
		g.mu.Lock()
		g.calls = append(g.calls, rate)
		g.mu.Unlock()
	}
	t.Cleanup(func() { setBlockRate = saved })
	return g
}

func (g *gatedRate) applied() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.calls...)
}

func TestStartDoesNotWaitForBlockRate(t *testing.T) {
	g := installGatedRate(t)
	before := runtime.SetMutexProfileFraction(-1)
	started := make(chan *Harness, 1)
	go func() { started <- Start(Config{MutexFraction: 7, BlockRateNs: 100_000}) }()
	var h *Harness
	select {
	case h = <-started:
	case <-time.After(5 * time.Second):
		close(g.release)
		(<-started).Stop()
		t.Fatal("Start waited for the block rate to be applied")
	}
	// Start has returned and the setter cannot have finished: it is
	// blocked, or about to be, on the harness goroutine.
	if rate := <-g.entered; rate != 100_000 {
		t.Fatalf("block rate set to %d, want 100000", rate)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 7 {
		t.Fatalf("mutex fraction after Start = %d, want 7 (set synchronously)", got)
	}

	stopped := make(chan struct{})
	go func() {
		h.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the block rate was still being applied")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	<-stopped
	if got := g.applied(); len(got) != 2 || got[0] != 100_000 || got[1] != 0 {
		t.Fatalf("block rate calls = %v, want [100000 0]: Stop restores only after the rate is applied", got)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != before {
		t.Fatalf("mutex fraction after Stop = %d, want restored %d", got, before)
	}
}

func TestStartThenStopLeavesBlockProfilingOff(t *testing.T) {
	g := installGatedRate(t)
	close(g.release)
	for _, interval := range []time.Duration{0, time.Hour} {
		h := Start(Config{BlockRateNs: 1000, Interval: interval})
		h.Stop()
		<-g.entered
	}
	got := g.applied()
	if len(got) != 4 || got[1] != 0 || got[3] != 0 {
		t.Fatalf("block rate calls = %v, want each Start's rate followed by Stop's 0", got)
	}
}

// blockOnChannel waits d on a channel receive, a blocking event the
// block profiler attributes to this function.
func blockOnChannel(d time.Duration) {
	ch := make(chan struct{})
	go func() {
		time.Sleep(d)
		close(ch)
	}()
	<-ch
}

func TestBlockProfileRecordsWaitOnceRateApplied(t *testing.T) {
	applied := make(chan struct{})
	saved := setBlockRate
	setBlockRate = func(rate int) {
		runtime.SetBlockProfileRate(rate)
		if rate > 0 {
			close(applied)
		}
	}
	defer func() { setBlockRate = saved }()

	const wait = 20 * 100_000 * time.Nanosecond
	h := Start(Config{BlockRateNs: 100_000})
	select {
	case <-applied:
	case <-time.After(5 * time.Second):
		h.Stop()
		t.Fatal("block rate never applied")
	}
	blockOnChannel(wait)
	h.Stop()
	blockAfterStop(wait)

	var buf strings.Builder
	if err := pprof.Lookup("block").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "prof.blockOnChannel") {
		t.Fatalf("block profile has no entry for a %v channel wait:\n%s", wait, buf.String())
	}
	if strings.Contains(buf.String(), "prof.blockAfterStop") {
		t.Fatal("block profile recorded a wait after Stop turned block profiling off")
	}
}

// blockAfterStop is blockOnChannel under another name, so the profile
// tells the two waits apart.
func blockAfterStop(d time.Duration) { blockOnChannel(d) }

func TestZeroConfigIsInert(t *testing.T) {
	before := runtime.SetMutexProfileFraction(-1)
	h := Start(Config{})
	defer h.Stop()
	if got := runtime.SetMutexProfileFraction(-1); got != before {
		t.Fatalf("zero config changed mutex fraction: %d -> %d", before, got)
	}
	// The endpoint still works via on-demand capture.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/prof?type=heap", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("on-demand heap profile: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

func TestWriteRuntimePromParses(t *testing.T) {
	var pw obs.PromWriter
	WriteRuntimeProm(&pw)
	m, err := obs.ParseProm(strings.NewReader(string(pw.Bytes())))
	if err != nil {
		t.Fatalf("runtime telemetry does not parse: %v\n%s", err, pw.Bytes())
	}
	if v, ok := m.Value("wdm_go_goroutines", nil); !ok || v < 1 {
		t.Errorf("wdm_go_goroutines = %v, %v; want >= 1", v, ok)
	}
	if v, ok := m.Value("wdm_go_gomaxprocs", nil); !ok || v < 1 {
		t.Errorf("wdm_go_gomaxprocs = %v, %v; want >= 1", v, ok)
	}
	if v, ok := m.Value("wdm_go_heap_bytes", nil); !ok || v <= 0 {
		t.Errorf("wdm_go_heap_bytes = %v, %v; want > 0", v, ok)
	}
}
