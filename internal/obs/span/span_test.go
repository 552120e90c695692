package span

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wdm"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceparent(tid, sid, FlagSampled)
	gt, gs, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gt != tid || gs != sid || flags != FlagSampled {
		t.Fatalf("round trip = %v %v %02x, want %v %v %02x", gt, gs, flags, tid, sid, FlagSampled)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	cases := []struct{ name, header string }{
		{"empty", ""},
		{"short", "00-abc"},
		{"bad separators", "00+0af7651916cd43dd8448eb211c80319c+b7ad6b7169203331+01"},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"bad trace hex", "00-ZZf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"bad parent hex", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333Z-01"},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero parent id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"bad flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz"},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseTraceparent(tc.header); err == nil {
			t.Errorf("%s: parsed %q without error", tc.name, tc.header)
		}
	}
}

func TestInactiveSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetInt("k", 1)
	s.SetError("boom")
	s.SetBlocked("blocked")
	s.End()
	if s.Active() || s.TraceID() != "" || s.Traceparent() != "" {
		t.Fatal("nil span reported activity")
	}
	if child := s.StartChild("c"); child.Active() {
		t.Fatal("child of nil span is active")
	}
	ctx, sp := Start(context.Background(), "op")
	if sp.Active() {
		t.Fatal("Start without a root produced an active span")
	}
	if FromContext(ctx).Active() {
		t.Fatal("context without a root carries an active span")
	}
	var tr *Tracer
	if s := tr.Root("r", ""); s.Active() {
		t.Fatal("nil tracer produced an active root")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

func TestNestedSpansAccumulate(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("http POST /v1/connect", "")
	ctx := ContextWith(context.Background(), root)

	ctx2, op := Start(ctx, "switchd.connect")
	op.SetString("connection", "0.0>5.0")
	_, fab := Start(ctx2, "fabric.add")
	fab.SetInt("fabric", 0)
	mid := fab.StartChild("route.middle")
	mid.SetInt("middle", 3)
	mid.End()
	fab.End()
	op.End()
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot holds %d traces, want 1", len(traces))
	}
	trc := traces[0]
	if trc.Root != "http POST /v1/connect" || trc.TraceID == "" || trc.Blocked || trc.Error {
		t.Fatalf("trace = %+v", trc)
	}
	if len(trc.Spans) != 4 {
		t.Fatalf("trace has %d spans, want 4", len(trc.Spans))
	}
	// Spans finish leaf-first; the root is last.
	byName := map[string]SpanRecord{}
	for _, s := range trc.Spans {
		byName[s.Name] = s
	}
	if byName["route.middle"].Parent != byName["fabric.add"].SpanID {
		t.Fatal("route.middle is not parented under fabric.add")
	}
	if byName["fabric.add"].Parent != byName["switchd.connect"].SpanID {
		t.Fatal("fabric.add is not parented under switchd.connect")
	}
	if byName["switchd.connect"].Parent != byName["http POST /v1/connect"].SpanID {
		t.Fatal("switchd.connect is not parented under the root")
	}
}

func TestTailSamplingKeepsBlockedAndSlow(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1 << 30, SlowThreshold: time.Hour})

	// Routine fast successes: all sampled out at this rate.
	for i := 0; i < 10; i++ {
		tr.Root("fast", "").End()
	}
	kept, dropped := tr.Stats()
	if kept != 0 || dropped != 10 {
		t.Fatalf("routine traces: kept %d dropped %d, want 0/10", kept, dropped)
	}

	blocked := tr.Root("blocked", "")
	blocked.SetBlocked("no middle available")
	blocked.End()
	errored := tr.Root("errored", "")
	errored.SetError("boom")
	errored.End()
	if kept, _ := tr.Stats(); kept != 2 {
		t.Fatalf("kept = %d after blocked+errored, want 2", kept)
	}
	last, ok := tr.LastBlocked()
	if !ok || last.Root != "blocked" || !last.Blocked {
		t.Fatalf("LastBlocked = %+v, %v", last, ok)
	}

	// A child span's blocked status propagates to the trace.
	root := tr.Root("parent", "")
	child := root.StartChild("fabric.add")
	child.SetBlocked("blocked leaf")
	child.End()
	root.End()
	if last, _ := tr.LastBlocked(); last.Root != "parent" {
		t.Fatalf("LastBlocked after child block = %+v", last)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := NewTracer(Config{Capacity: tracerShards, SampleEvery: 1})
	for i := 0; i < 3*tracerShards; i++ {
		tr.Root("r", "").End()
	}
	if got := len(tr.Snapshot()); got != tracerShards {
		t.Fatalf("ring holds %d traces, want %d", got, tracerShards)
	}
	kept, _ := tr.Stats()
	if kept != 3*tracerShards {
		t.Fatalf("kept = %d, want %d (evicted traces still counted)", kept, 3*tracerShards)
	}
}

func TestSpanLogJSONLines(t *testing.T) {
	var buf bytes.Buffer
	mu := &syncWriter{w: &buf}
	tr := NewTracer(Config{SampleEvery: 1, Log: mu})
	root := tr.Root("op", "")
	root.SetBlocked("why")
	root.End()
	tr.Root("op2", "").End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("span log holds %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("span log line does not parse: %v", err)
	}
	if !rec.Blocked || rec.Root != "op" || rec.TraceID == "" {
		t.Fatalf("logged record = %+v", rec)
	}
}

type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestMiddleware(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	var sawActive bool
	var serverTraceID string
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := FromContext(r.Context())
		sawActive = sp.Active()
		serverTraceID = sp.TraceID()
		w.WriteHeader(http.StatusConflict)
	}))

	// Inbound traceparent: the server joins the client's trace.
	tid := NewTraceID()
	req := httptest.NewRequest("POST", "/v1/connect", nil)
	req.Header.Set(TraceparentHeader, FormatTraceparent(tid, NewSpanID(), FlagSampled))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if !sawActive {
		t.Fatal("handler saw no active span")
	}
	if serverTraceID != tid.String() {
		t.Fatalf("server trace id %s, want inbound %s", serverTraceID, tid)
	}
	if got := w.Header().Get(TraceparentHeader); !strings.Contains(got, tid.String()) {
		t.Fatalf("response traceparent %q does not carry the trace id", got)
	}

	// No inbound header: an id is generated and echoed.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/connect", nil))
	if got := w.Header().Get(TraceparentHeader); got == "" {
		t.Fatal("no traceparent echoed for header-less request")
	}

	// Observability endpoints stay untraced.
	kept0, dropped0 := tr.Stats()
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if kept, dropped := tr.Stats(); kept != kept0 || dropped != dropped0 {
		t.Fatal("/metrics produced a trace")
	}
	if got := w.Header().Get(TraceparentHeader); got != "" {
		t.Fatalf("/metrics echoed traceparent %q", got)
	}

	// Nil tracer: pass-through.
	var disabled *Tracer
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := disabled.Middleware(inner); got == nil {
		t.Fatal("nil tracer middleware returned nil handler")
	}
}

func TestFormatTraceparentMatchesSprintf(t *testing.T) {
	for i := 0; i < 200; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		flags := byte(i)
		want := fmt.Sprintf("00-%s-%s-%02x", tid, sid, flags)
		if got := FormatTraceparent(tid, sid, flags); got != want {
			t.Fatalf("FormatTraceparent = %q, want %q", got, want)
		}
	}
}

// TestTypedAttrs pins how each typed attribute lands in a kept record:
// its JSON value, and that slices and connections are copied at Set
// time, so a caller reusing its buffer cannot rewrite a kept trace.
func TestTypedAttrs(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("r", "")
	ints := []int{3, 1, 2}
	conn := wdm.Connection{Source: wdm.PortWave{Port: 0, Wave: 1},
		Dests: []wdm.PortWave{{Port: 5, Wave: 1}, {Port: 12, Wave: 1}}}
	root.SetInt("int", -7)
	root.SetUint("uint", 1<<63)
	root.SetString("str", "a>b")
	root.SetInts("ints", ints)
	root.SetConnection("conn", conn)
	root.SetConnection("unicast", wdm.Connection{Source: wdm.PortWave{Port: 2}, Dests: []wdm.PortWave{{Port: 3}}})
	ints[0] = 99
	conn.Dests[0].Port = 99
	root.End()

	got, err := json.Marshal(tr.Snapshot()[0].Spans[0].Attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"key":"int","value":-7},{"key":"uint","value":9223372036854775808},` +
		`{"key":"str","value":"a\u003eb"},{"key":"ints","value":[3,1,2]},` +
		`{"key":"conn","value":"0.1\u003e5.1,12.1"},{"key":"unicast","value":"2.0\u003e3.0"}]`
	if string(got) != want {
		t.Fatalf("attrs = %s\nwant    %s", got, want)
	}
}

// TestSetAfterEndIgnored: a span is frozen by End — attributes and
// status set afterwards change neither its kept record nor the trace's
// blocked/error summary, and a span ended after its root is dropped.
func TestSetAfterEndIgnored(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("r", "")
	child := root.StartChild("c")
	child.SetInt("before", 1)
	child.End()
	child.SetInt("after", 2)
	child.SetInts("after_ints", []int{1})
	child.SetConnection("after_conn", wdm.Connection{Dests: []wdm.PortWave{{}}})
	child.SetBlocked("too late")
	child.SetError("too late")
	late := root.StartChild("late")
	root.End()
	root.SetString("after", "x")
	root.SetError("too late")
	late.SetInt("k", 1)
	late.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot holds %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Blocked || got.Error {
		t.Fatalf("trace summary changed after End: blocked=%v error=%v", got.Blocked, got.Error)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2 (the late child is dropped): %+v", len(got.Spans), got.Spans)
	}
	c, r := got.Spans[0], got.Spans[1]
	if c.Status != StatusOK || c.Detail != "" || len(c.Attrs) != 1 || c.Attrs[0].Key != "before" {
		t.Fatalf("child record changed after End: %+v", c)
	}
	if r.Status != StatusOK || len(r.Attrs) != 0 {
		t.Fatalf("root record changed after End: %+v", r)
	}
}

// TestSpillBeyondInlineBuffers: a trace larger than the record's inline
// span, attribute and int capacities keeps every span and value.
func TestSpillBeyondInlineBuffers(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("r", "")
	const n = 3 * inlineSpans
	for i := 0; i < n; i++ {
		c := root.StartChild("c")
		for j := 0; j < 3; j++ {
			c.SetInt("k", int64(i*10+j))
		}
		c.SetInts("ints", []int{i, i, i, i, i, i, i, i})
		c.End()
	}
	root.End()
	spans := tr.Snapshot()[0].Spans
	if len(spans) != n+1 {
		t.Fatalf("trace has %d spans, want %d", len(spans), n+1)
	}
	for i, s := range spans[:n] {
		if len(s.Attrs) != 4 || s.Attrs[2].Value != int64(i*10+2) {
			t.Fatalf("span %d attrs = %+v", i, s.Attrs)
		}
		if ints := s.Attrs[3].Value.([]int); len(ints) != 8 || ints[7] != i {
			t.Fatalf("span %d ints = %v", i, ints)
		}
	}
}

// keptLargeTrace builds a kept trace of n children with three
// attributes each, set while every child is still open so each span's
// attributes are spread across the trace, and returns the time the
// root's End — which formats the kept record — took.
func keptLargeTrace(t *testing.T, n int) (TraceRecord, time.Duration) {
	t.Helper()
	tr := NewTracer(Config{SampleEvery: 1})
	root := tr.Root("r", "")
	children := make([]*Span, n)
	for i := range children {
		children[i] = root.StartChild("c")
	}
	for j := 0; j < 3; j++ {
		for i, c := range children {
			c.SetInt("k", int64(i*10+j))
		}
	}
	for i := n - 1; i >= 0; i-- { // end in reverse of creation order
		children[i].End()
	}
	start := time.Now()
	root.End()
	return tr.Snapshot()[0], time.Since(start)
}

// TestLargeKeptTraceRecord: a kept trace of hundreds of spans — what a
// middle failure that drops sessions records — hands every attribute to
// its own span, and formatting it is linear in its size (ten times the
// spans may not cost more than 30 times the time; the quadratic
// per-span attribute scan it replaced cost about 100 times).
func TestLargeKeptTraceRecord(t *testing.T) {
	const n = 300
	rec, _ := keptLargeTrace(t, n)
	if len(rec.Spans) != n+1 {
		t.Fatalf("trace has %d spans, want %d", len(rec.Spans), n+1)
	}
	for k, s := range rec.Spans[:n] {
		i := n - 1 - k
		if len(s.Attrs) != 3 {
			t.Fatalf("span %d attrs = %+v", i, s.Attrs)
		}
		for j, a := range s.Attrs {
			if a.Value != int64(i*10+j) {
				t.Fatalf("span %d attr %d = %v, want %d", i, j, a.Value, i*10+j)
			}
		}
	}
	if testing.Short() || raceEnabled {
		return
	}
	fastest := func(n int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			if _, d := keptLargeTrace(t, n); d < best {
				best = d
			}
		}
		return best
	}
	small, large := fastest(n), fastest(10*n)
	if large > 30*small {
		t.Fatalf("formatting %d spans took %v, %d spans %v: not linear", 10*n, large, n, small)
	}
}

// TestDroppedTraceAllocs is the allocation guard for the common case: a
// routine request's span tree — root, three nested spans and a dozen
// typed attributes, connection included — that tail sampling drops.
// Nothing is formatted; the tree costs one allocation.
func TestDroppedTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	tr := NewTracer(Config{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	conn := wdm.Connection{Source: wdm.PortWave{Port: 0}, Dests: []wdm.PortWave{{Port: 5}, {Port: 9}}}
	serves := []int{1, 2}
	allocs := testing.AllocsPerRun(200, func() {
		root := tr.Root("http POST /v1/connect", "")
		root.SetString("method", "POST")
		root.SetString("path", "/v1/connect")
		op := root.StartChild("switchd.connect")
		op.SetConnection("connection", conn)
		op.SetUint("session", 7)
		op.SetInt("fabric", 0)
		fab := op.StartChild("fabric.add")
		fab.SetInt("fabric", 0)
		mid := fab.StartChild("route.middle")
		mid.SetInt("middle", 3)
		mid.SetString("state", "selected")
		mid.SetInts("serves", serves)
		mid.End()
		fab.End()
		op.SetInt("phase_route_search_us", 12)
		op.End()
		root.SetInt("status", 200)
		root.End()
	})
	if allocs > 1 {
		t.Fatalf("a dropped span tree allocates %.0f objects, want <= 1", allocs)
	}
	if kept, _ := tr.Stats(); kept != 0 {
		t.Fatalf("kept %d traces, want all dropped", kept)
	}
}
