package switchd

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/traffic"
	"repro/internal/wdm"
)

// TestPhaseTimerZeroAlloc is the acceptance gate for the phase plane:
// accumulating and observing phases must not heap-allocate, with or
// without an exemplar trace id, so the instrumentation is free on the
// connect hot path (the bench path passes a stack timer and "", a
// traced request its trace id).
func TestPhaseTimerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	m := newMetrics(testParams(), 2)
	for _, traceID := range []string{"", "4bf92f3577b34da6a3ce929d0e0e4736"} {
		allocs := testing.AllocsPerRun(200, func() {
			var pt phaseTimer
			pt.add(phaseAdmission, 3*time.Microsecond)
			pt.add(phaseLockWait, 5*time.Microsecond)
			pt.add(phaseRouteSearch, 11*time.Microsecond)
			pt.add(phaseWALAppend, 7*time.Microsecond)
			pt.observe(m, traceID)
			pt.annotate(nil) // inactive span: no-op
		})
		if allocs != 0 {
			t.Fatalf("phase timer (trace id %q) allocates %.1f objects per request on the hot path, want 0", traceID, allocs)
		}
	}
}

// TestLatencyHistBucketsLE pins Prometheus le (<=) semantics: an
// observation lands in the first bucket whose bound is >= it, at
// nanosecond precision (not truncated to whole microseconds).
func TestLatencyHistBucketsLE(t *testing.T) {
	type bucketCase struct {
		d    time.Duration
		want int // bucket index; len(routeBucketsMicros) = overflow
	}
	cases := []bucketCase{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{1000 * time.Nanosecond, 0},
		{1001 * time.Nanosecond, 1},
		{1999 * time.Nanosecond, 1},
		{2900 * time.Nanosecond, 2},
	}
	for i, ub := range routeBucketsMicros {
		bound := time.Duration(ub) * time.Microsecond
		cases = append(cases, bucketCase{bound - 1, i}, bucketCase{bound, i}, bucketCase{bound + 1, i + 1})
	}
	for _, tc := range cases {
		h := newLatencyHist()
		h.observe(tc.d)
		for i := range h.buckets {
			want := int64(0)
			if i == tc.want {
				want = 1
			}
			if got := h.buckets[i].Load(); got != want {
				t.Fatalf("%v: bucket %d (le %v) holds %d, want %d", tc.d, i, bucketLabel(i), got, want)
			}
		}
	}
}

func bucketLabel(i int) string {
	if i < len(routeBucketsMicros) {
		return strconv.FormatInt(routeBucketsMicros[i], 10) + "us"
	}
	return "+Inf"
}

// TestServerTimingMatchesFormatFloat: the integer Server-Timing
// renderer is byte-identical to strconv.FormatFloat(ms, 'f', 3, 64),
// rounding included, over every nanosecond up to 3 ms, exact half
// microseconds up to 10 s, and random durations up to a day (-short
// checks a tenth of each).
func TestServerTimingMatchesFormatFloat(t *testing.T) {
	check := func(d time.Duration) {
		want := strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64)
		if got := string(appendMillis(nil, d)); got != want {
			t.Fatalf("appendMillis(%d ns) = %s, want %s", int64(d), got, want)
		}
	}
	scale := int64(10)
	if testing.Short() {
		scale = 1
	}
	for d := time.Duration(0); d <= time.Duration(scale)*300*time.Microsecond; d++ {
		check(d)
	}
	for us := int64(0); us <= scale*1_000_000; us += 7 {
		check(time.Duration(us*1000 + 500))
	}
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < scale*20_000; i++ {
		check(time.Duration(rng.Int63n(int64(24 * time.Hour))))
	}

	var pt phaseTimer
	pt.add(phaseLockWait, 41*time.Microsecond)
	pt.add(phaseRouteSearch, 12_499*time.Nanosecond)
	pt.add(phaseRespond, 1_500_500*time.Nanosecond)
	if got, want := pt.serverTiming(), "lock_wait;dur=0.041, route_search;dur=0.012, respond;dur=1.500"; got != want {
		t.Fatalf("serverTiming = %q, want %q", got, want)
	}
}

// TestConnectPathZeroPhaseAllocs measures the full in-process connect +
// disconnect cycle with and without the stack phase timer: the timer
// must not add a single allocation.
func TestConnectPathZeroPhaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, Spans: span.Config{Capacity: -1}})
	conn, err := wdm.ParseConnection("0.0>8.0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func(pt *phaseTimer) {
		id, _, err := ctl.connect(ctx, pt, conn, 0)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		if err := ctl.disconnect(ctx, pt, id); err != nil {
			t.Fatalf("disconnect: %v", err)
		}
	}
	base := testing.AllocsPerRun(100, func() { cycle(nil) })
	timed := testing.AllocsPerRun(100, func() {
		var pt phaseTimer
		cycle(&pt)
		pt.observe(ctl.metrics, "")
	})
	if timed > base {
		t.Fatalf("phase timing added allocations: %.1f with timer vs %.1f without", timed, base)
	}
}

// TestPhaseNamesComplete pins the name/attr tables to numPhases so a
// new phase cannot ship without its label.
func TestPhaseNamesComplete(t *testing.T) {
	for p := phase(0); p < numPhases; p++ {
		if phaseNames[p] == "" || phaseAttrs[p] == "" {
			t.Fatalf("phase %d missing name (%q) or attr (%q)", p, phaseNames[p], phaseAttrs[p])
		}
	}
}

// TestServerTimingHeaderAndPhaseExposition drives the HTTP path and
// asserts (a) connect responses carry a Server-Timing header with the
// route_search phase, (b) /metrics exports wdm_phase_seconds histograms
// that the strict parser accepts, and (c) the per-request header and
// the histogram agree that phases were observed.
func TestServerTimingHeaderAndPhaseExposition(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 2,
		DataDir: t.TempDir(), WALSyncDelay: -1, SnapshotInterval: -1})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	body, err := json.Marshal(api.ConnectRequest{Connection: "0.0>8.0"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/connect", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("connect: status %d", resp.StatusCode)
	}
	st := resp.Header.Get("Server-Timing")
	if st == "" {
		t.Fatal("connect response has no Server-Timing header")
	}
	for _, want := range []string{"route_search;dur=", "wal_append;dur="} {
		if !strings.Contains(st, want) {
			t.Errorf("Server-Timing %q missing %q", st, want)
		}
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_phase_seconds_count", map[string]string{"phase": "route_search"}); !ok || v < 1 {
		t.Errorf("wdm_phase_seconds_count{phase=route_search} = %v, %v; want >= 1", v, ok)
	}
	if v, ok := pm.Value("wdm_phase_seconds_count", map[string]string{"phase": "wal_append"}); !ok || v < 1 {
		t.Errorf("wdm_phase_seconds_count{phase=wal_append} = %v, %v; want >= 1", v, ok)
	}
	// Runtime telemetry rides in the same exposition.
	if v, ok := pm.Value("wdm_go_goroutines", nil); !ok || v < 1 {
		t.Errorf("wdm_go_goroutines = %v, %v; want >= 1", v, ok)
	}
}

// TestVersionEndpointAndBuildInfo: /v1/version serves the build info
// and /metrics carries the matching wdm_build_info gauge.
func TestVersionEndpointAndBuildInfo(t *testing.T) {
	ctl := newTestController(t, Config{Fabric: testParams()})
	srv := httptest.NewServer(ctl.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/version: status %d", resp.StatusCode)
	}
	var vi api.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		t.Fatal(err)
	}
	if vi.Version != Version || vi.GoVersion == "" {
		t.Fatalf("version info = %+v, want version %q and a go version", vi, Version)
	}

	pm := scrapeProm(t, srv.Client(), srv.URL)
	if v, ok := pm.Value("wdm_build_info", map[string]string{"version": Version}); !ok || v != 1 {
		t.Errorf("wdm_build_info{version=%s} = %v, %v; want 1", Version, v, ok)
	}
}

// TestParseServerTiming pins the loadgen's header parser against the
// exact format phaseTimer.serverTiming emits.
func TestParseServerTiming(t *testing.T) {
	sum := map[string]float64{}
	n := map[string]int{}
	traffic.ParseServerTiming("lock_wait;dur=0.041, route_search;dur=0.012", sum, n)
	traffic.ParseServerTiming("lock_wait;dur=0.059", sum, n)
	traffic.ParseServerTiming("garbage, no-dur;x=1, ;dur=5", sum, n) // ignored
	if n["lock_wait"] != 2 || sum["lock_wait"] != 0.1 {
		t.Errorf("lock_wait = %v over %d samples, want 0.1 over 2", sum["lock_wait"], n["lock_wait"])
	}
	if n["route_search"] != 1 || sum["route_search"] != 0.012 {
		t.Errorf("route_search = %v over %d samples, want 0.012 over 1", sum["route_search"], n["route_search"])
	}
	if len(sum) != 2 {
		t.Errorf("parsed %d phases, want 2: %v", len(sum), sum)
	}
}

// handlerCycle returns one in-process connect + disconnect through ctl's
// HTTP handler, on a reused request, body and response writer so only
// the server's allocations count.
func handlerCycle(t *testing.T, ctl *Controller) func() {
	h := ctl.Handler()
	connectReq := httptest.NewRequest(http.MethodPost, "/v1/connect", nil)
	disconnectReq := httptest.NewRequest(http.MethodPost, "/v1/disconnect", nil)
	// The body the repo's client sends: json.Marshal writes '>' as \u003e.
	connectBody, err := json.Marshal(api.ConnectRequest{Connection: "0.0>8.0"})
	if err != nil {
		t.Fatal(err)
	}
	var body reusableBody
	var w reusableWriter
	var disconnectBody []byte
	serve := func(req *http.Request, data []byte) {
		body.Reset(data)
		req.Body = &body
		w.reset()
		h.ServeHTTP(&w, req)
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.URL.Path, w.code, w.buf)
		}
	}
	return func() {
		serve(connectReq, connectBody)
		var cr api.ConnectResponse
		if !parseConnectResponseSession(w.buf, &cr) {
			t.Fatalf("connect response without a session: %s", w.buf)
		}
		// json.Marshal(api.DisconnectRequest{...}), without allocating.
		disconnectBody = strconv.AppendUint(append(disconnectBody[:0], `{"session":`...), cr.Session, 10)
		disconnectBody = append(disconnectBody, '}')
		serve(disconnectReq, disconnectBody)
	}
}

// parseConnectResponseSession reads the session id out of a connect
// response without allocating.
func parseConnectResponseSession(b []byte, cr *api.ConnectResponse) bool {
	i := bytes.Index(b, []byte(`"session": `))
	if i < 0 {
		return false
	}
	p := hotParser{b: b, i: i + len(`"session": `)}
	var ok bool
	cr.Session, ok = p.uint()
	return ok
}

type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

type reusableWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *reusableWriter) reset() {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = http.StatusOK
	w.buf = w.buf[:0]
}

func (w *reusableWriter) Header() http.Header  { return w.h }
func (w *reusableWriter) WriteHeader(code int) { w.code = code }
func (w *reusableWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestHandlerCycleAllocs is the allocation guard for the whole serving
// handler: one in-process connect + disconnect through Handler(), with
// the tracer at its defaults (every request traced, 1 in 16 routine
// traces kept) and with the tracer disabled. The ceilings are the
// counts this code measures; a change that adds an allocation per
// request fails here.
func TestHandlerCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name  string
		spans span.Config
		max   float64
	}{
		{"traced", span.Config{}, 36},
		{"untraced", span.Config{Capacity: -1}, 19},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1, Spans: tc.spans})
			defer ctl.Close()
			cycle := handlerCycle(t, ctl)
			// 160 cycles are 320 traces: a whole number of 1-in-16
			// sampling periods, so the kept share is exact.
			allocs := testing.AllocsPerRun(160, cycle)
			t.Logf("%s: %.0f allocs per connect+disconnect", tc.name, allocs)
			if allocs > tc.max {
				t.Fatalf("%s handler cycle allocates %.0f objects, ceiling %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}
