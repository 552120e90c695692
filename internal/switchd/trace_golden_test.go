package switchd

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/span"
)

// The kept-trace golden test pins what the tracer records: a scripted
// set of requests runs through Controller.Handler() with every trace
// kept, and each kept TraceRecord — normalized for random ids, clocks
// and measured durations — must match testdata/kept_traces.golden
// byte for byte. Any change to span names, nesting order, statuses,
// details or attribute keys, values and JSON types shows up here.
//
// Regenerate (only when a change to the recorded traces is intended)
// with
//
//	go test ./internal/switchd -run TestKeptTracesGolden -update-trace-golden

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/kept_traces.golden")

const traceGoldenFile = "testdata/kept_traces.golden"

// goldenInboundTrace and goldenInboundParent are the one caller-owned
// trace context the script sends; they stay literal in the digest, so
// the golden also pins that an inbound traceparent is joined.
const (
	goldenInboundTrace  = "4bf92f3577b34da6a3ce929d0e0e4736"
	goldenInboundParent = "00f067aa0ba902b7"
)

// lockedBuffer is a span-log sink safe for the tracer's writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// goldenRequest is one scripted call and the status it must answer.
type goldenRequest struct {
	path, body, traceparent string
	want                    int
}

// runGoldenScript drives reqs through ctl's handler and returns every
// kept trace, after checking that the ring, the span log, LastBlocked
// and GET /v1/debug/spans all carry the same records.
func runGoldenScript(t *testing.T, ctl *Controller, log *lockedBuffer, reqs []goldenRequest) []span.TraceRecord {
	t.Helper()
	h := ctl.Handler()
	for _, rq := range reqs {
		req := httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body))
		if rq.traceparent != "" {
			req.Header.Set(span.TraceparentHeader, rq.traceparent)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != rq.want {
			t.Fatalf("%s %s: status %d, want %d: %s", rq.path, rq.body, rr.Code, rq.want, rr.Body.Bytes())
		}
	}
	traces := ctl.Tracer().Snapshot()

	// The span log carries every kept trace, in completion order.
	var logged []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if line != "" {
			logged = append(logged, line)
		}
	}
	if len(logged) != len(traces) {
		t.Fatalf("span log has %d lines, ring has %d traces", len(logged), len(traces))
	}
	for i, tr := range traces {
		line, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != logged[i] {
			t.Fatalf("span log line %d differs from the ring:\n log  %s\n ring %s", i, logged[i], line)
		}
	}

	// /v1/debug/spans serves the same records.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/spans?limit=1000", nil))
	var sr SpansResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &sr); err != nil {
		t.Fatalf("decode /v1/debug/spans: %v", err)
	}
	if len(sr.Traces) != len(traces) {
		t.Fatalf("/v1/debug/spans served %d traces, ring has %d", len(sr.Traces), len(traces))
	}
	for _, served := range sr.Traces {
		found := false
		for _, tr := range traces {
			if tr.TraceID == served.TraceID {
				found = len(tr.Spans) == len(served.Spans)
			}
		}
		if !found {
			t.Fatalf("/v1/debug/spans trace %s does not match the ring", served.TraceID)
		}
	}

	// LastBlocked is the newest blocked trace, spans included.
	var lastBlocked *span.TraceRecord
	for i := range traces {
		if traces[i].Blocked {
			lastBlocked = &traces[i]
		}
	}
	got, ok := ctl.Tracer().LastBlocked()
	if (lastBlocked != nil) != ok {
		t.Fatalf("LastBlocked ok = %v, want %v", ok, lastBlocked != nil)
	}
	if ok {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(*lastBlocked)
		if !bytes.Equal(a, b) {
			t.Fatalf("LastBlocked differs from the ring:\n got  %s\n want %s", a, b)
		}
	}
	return traces
}

// normalizeTrace rewrites the non-deterministic parts of a kept trace:
// generated trace and span ids become t<n>/s<n> in order of first
// appearance (the inbound ids stay literal), clocks and durations
// become zero, and measured microsecond attributes (keys ending in
// "_us") become 0. Attribute presence, order and JSON type are kept.
func normalizeTrace(tr span.TraceRecord, ids map[string]string) span.TraceRecord {
	name := func(id, prefix string) string {
		if id == "" || id == goldenInboundTrace || id == goldenInboundParent {
			return id
		}
		if n, ok := ids[id]; ok {
			return n
		}
		n := prefix + strconv.Itoa(len(ids)+1)
		ids[id] = n
		return n
	}
	tr.TraceID = name(tr.TraceID, "t")
	tr.Start = time.Time{}
	tr.DurationNs = 0
	spans := make([]span.SpanRecord, len(tr.Spans))
	for i, s := range tr.Spans {
		s.SpanID = name(s.SpanID, "s")
		s.Parent = name(s.Parent, "s")
		s.Start = time.Time{}
		s.DurationNs = 0
		attrs := make([]span.Attr, len(s.Attrs))
		for j, a := range s.Attrs {
			if strings.HasSuffix(a.Key, "_us") {
				a.Value = 0
			}
			attrs[j] = a
		}
		if len(attrs) == 0 {
			attrs = nil
		}
		s.Attrs = attrs
		spans[i] = s
	}
	tr.Spans = spans
	return tr
}

// TestKeptTracesGolden drives connect, branch, disconnect, two 4xx
// answers, an inbound traceparent, a durable connect (WAL span) and
// blocked connects on sub-bound fabrics (input-side, split-limit and
// out-link-busy rejections) with every trace kept, and compares the
// normalized records against the golden file.
func TestKeptTracesGolden(t *testing.T) {
	var lines []string
	ids := map[string]string{}
	digest := func(traces []span.TraceRecord) {
		for _, tr := range traces {
			b, err := json.Marshal(normalizeTrace(tr, ids))
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
	}

	// At the bound: the serving cycle, its error answers and a joined
	// inbound trace.
	var log lockedBuffer
	ctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1,
		Spans: span.Config{SampleEvery: 1, SlowThreshold: time.Hour, Log: &log}})
	digest(runGoldenScript(t, ctl, &log, []goldenRequest{
		{"/v1/connect", `{"connection":"0.0>5.0,9.0,13.0"}`, "", 200},
		{"/v1/branch", `{"session":1,"dests":["2.0","12.0"]}`, "", 200},
		{"/v1/connect", `{"connection":"1.1>6.1"}`,
			"00-" + goldenInboundTrace + "-" + goldenInboundParent + "-01", 200},
		{"/v1/disconnect", `{"session":1}`, "", 200},
		{"/v1/disconnect", `{"session":99}`, "", 404},
		{"/v1/connect", `{"connection":"0.0>"}`, "", 400},
		{"/v1/connect", `{"bogus":1}`, "", 400},
	}))
	ctl.Close()

	// Durable: the wal.recover root and a wal.append child.
	var wlog lockedBuffer
	wctl := newTestController(t, Config{Fabric: testParams(), Replicas: 1,
		DataDir: t.TempDir(), WALSyncDelay: -1, SnapshotInterval: -1,
		Spans: span.Config{SampleEvery: 1, SlowThreshold: time.Hour, Log: &wlog}})
	digest(runGoldenScript(t, wctl, &wlog, []goldenRequest{
		{"/v1/connect", `{"connection":"3.0>7.0,11.0"}`, "", 200},
	}))
	wctl.Close()

	// Below the bound: a blocked connect with per-middle rejections.
	p := testParams()
	p.M = 1
	p.X = 1
	var blog lockedBuffer
	bctl := newTestController(t, Config{Fabric: p, Replicas: 1,
		Spans: span.Config{SampleEvery: 1, SlowThreshold: time.Hour, Log: &blog}})
	digest(runGoldenScript(t, bctl, &blog, []goldenRequest{
		{"/v1/connect", `{"connection":"0.0>4.0"}`, "", 200},
		{"/v1/connect", `{"connection":"1.0>8.0,12.0"}`, "", 409},
	}))
	bctl.Close()

	// Below the bound, blocked in the selection loop: the rejection
	// spans carry serves/rejected output-module lists.
	p.M = 2
	var splitLog lockedBuffer
	sctl := newTestController(t, Config{Fabric: p, Replicas: 1,
		Spans: span.Config{SampleEvery: 1, SlowThreshold: time.Hour, Log: &splitLog}})
	digest(runGoldenScript(t, sctl, &splitLog, []goldenRequest{
		{"/v1/connect", `{"connection":"1.0>4.0,15.0"}`, "", 200},
		{"/v1/connect", `{"connection":"5.0>0.0,9.0,7.0"}`, "", 200},
		{"/v1/connect", `{"connection":"10.0>11.0,14.0,3.0"}`, "", 409},
	}))
	sctl.Close()

	// Below the bound, every residual out-link busy: the rejection
	// spans carry the rejected output modules.
	var olog lockedBuffer
	octl := newTestController(t, Config{Fabric: p, Replicas: 1,
		Spans: span.Config{SampleEvery: 1, SlowThreshold: time.Hour, Log: &olog}})
	digest(runGoldenScript(t, octl, &olog, []goldenRequest{
		{"/v1/connect", `{"connection":"10.0>9.0,11.0"}`, "", 200},
		{"/v1/connect", `{"connection":"15.0>8.0"}`, "", 200},
		{"/v1/connect", `{"connection":"8.0>15.0,2.0"}`, "", 200},
		{"/v1/connect", `{"connection":"12.0>10.0"}`, "", 409},
	}))
	octl.Close()

	got := strings.Join(lines, "\n") + "\n"
	if *updateTraceGolden {
		if err := os.MkdirAll(filepath.Dir(traceGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-trace-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("kept trace %d diverged:\n got  %s\n want %s", i, g, w)
			}
		}
	}
}
