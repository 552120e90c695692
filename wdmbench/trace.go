package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/switchd"
	"repro/internal/wdm"
)

// The traced run records spans from the benchmark's own code only, at
// four boundaries: client.request (the recorder RoundTripper),
// http.handler (a wrapper around Controller.Handler, with the
// Server-Timing phases as labelled children), fabric.add|branch|release
// (a registered backend that delegates to msw), and cluster.commit (a
// wrapper around the replication server's Commit). The program itself is
// not instrumented.

// span is one recorded interval. Times are nanoseconds since the trace
// log's epoch.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Path    string `json:"path,omitempty"`
	Plane   int    `json:"plane"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Status  int    `json:"status,omitempty"`
	Value   int64  `json:"value,omitempty"` // fabric.add: middles used; http.handler: body bytes
	Blocked bool   `json:"blocked,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// traceLog keeps every span in memory until the run writes them out.
// A nil *traceLog is valid and never records.
type traceLog struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// planes hands plane indexes to the traced backend's instances in
	// construction order; switchd.New builds replica i i-th.
	planes atomic.Int32
	// inflight holds, per plane, the http.handler span serving that
	// plane. Every workload runs one engine worker per plane, so at most
	// one mutating request per plane is in flight.
	inflight []atomic.Uint64
}

func newTraceLog(planes int) *traceLog {
	return &traceLog{epoch: time.Now(), inflight: make([]atomic.Uint64, planes)}
}

func (t *traceLog) enabled() bool { return t != nil && t.on.Load() }
func (t *traceLog) now() int64    { return int64(time.Since(t.epoch)) }
func (t *traceLog) newID() uint64 { return t.ids.Add(1) }

func (t *traceLog) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *traceLog) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// claimPlane returns the next plane index, or -1 once every plane of the
// traced controller is built (a standby's warm planes record nothing).
func (t *traceLog) claimPlane() int {
	p := int(t.planes.Add(1)) - 1
	if p >= len(t.inflight) {
		return -1
	}
	return p
}

func (t *traceLog) inflightOn(plane int) uint64 { return t.inflight[plane].Load() }

// writeTo stores every span as gzip-compressed JSON lines.
func (t *traceLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	zw := gzip.NewWriter(bw)
	enc := json.NewEncoder(zw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval covered
// by the union of its children's intervals (each clipped to the parent).
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curS, curE, open = v.s, v.e, true
		case v.s <= curE:
			curE = max(curE, v.e)
		default:
			covered += curE - curS
			curS, curE = v.s, v.e
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// ---------------------------------------------------------------------------
// fabric boundary: a registered backend delegating to msw.

// tracedBackend is the backend name the traced run serves with.
const tracedBackend = "msw-traced"

// fabricTrace is the trace log new traced-backend instances report to;
// the traced run sets it just before building its controller.
var fabricTrace atomic.Pointer[traceLog]

func init() {
	base, err := backend.Get("msw")
	if err != nil {
		panic(err)
	}
	d := base
	d.Name = tracedBackend
	d.Description = base.Description + " (with benchmark spans around Add, AddBranch and Release)"
	d.New = func(p multistage.Params) (backend.Backend, error) {
		b, err := base.New(p)
		if err != nil {
			return nil, err
		}
		t := fabricTrace.Load()
		plane := -1
		if t != nil {
			plane = t.claimPlane()
		}
		return &tracedFabric{Backend: b, trace: t, plane: plane}, nil
	}
	backend.Register(d)
}

// tracedFabric records a fabric span around each routing call and joins
// it to the request in flight on its plane.
type tracedFabric struct {
	backend.Backend
	trace *traceLog
	plane int
}

func (f *tracedFabric) on() bool { return f.plane >= 0 && f.trace.enabled() }

func (f *tracedFabric) record(name string, start, end int64, err error, value int64) {
	f.trace.add(span{
		ID: f.trace.newID(), Parent: f.trace.inflightOn(f.plane), Name: name, Plane: f.plane,
		Start: start, End: end, Value: value, Blocked: multistage.IsBlocked(err),
	})
}

func (f *tracedFabric) Add(c wdm.Connection) (int, error) {
	if !f.on() {
		return f.Backend.Add(c)
	}
	start := f.trace.now()
	id, err := f.Backend.Add(c)
	end := f.trace.now()
	var mids int64
	if err == nil {
		if used, ok := f.Backend.MiddlesUsed(id); ok {
			mids = int64(len(used))
		}
	}
	f.record("fabric.add", start, end, err, mids)
	return id, err
}

func (f *tracedFabric) AddBranch(id int, dests ...wdm.PortWave) error {
	if !f.on() {
		return f.Backend.AddBranch(id, dests...)
	}
	start := f.trace.now()
	err := f.Backend.AddBranch(id, dests...)
	f.record("fabric.branch", start, f.trace.now(), err, 0)
	return err
}

func (f *tracedFabric) Release(id int) error {
	if !f.on() {
		return f.Backend.Release(id)
	}
	start := f.trace.now()
	err := f.Backend.Release(id)
	f.record("fabric.release", start, f.trace.now(), err, 0)
	return err
}

// ---------------------------------------------------------------------------
// http boundary: a wrapper around Controller.Handler.

// wrapHandler records an http.handler span per request, parented by the
// client span named in the request-id header, with the Server-Timing
// phases and the response write as children.
func (t *traceLog) wrapHandler(ctl *switchd.Controller, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		plane := -1
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			plane = planeOf(ctl, body)
		}
		id := t.newID()
		if plane >= 0 {
			t.inflight[plane].Store(id)
		}
		tw := &timedWriter{ResponseWriter: w, trace: t}
		start := t.now()
		h.ServeHTTP(tw, r)
		end := t.now()
		if plane >= 0 {
			t.inflight[plane].CompareAndSwap(id, 0)
		}
		t.add(span{ID: id, Parent: parent, Name: "http.handler", Path: r.URL.Path, Plane: plane,
			Start: start, End: end, Status: tw.status, Value: tw.bytes})
		if tw.header == 0 {
			return
		}
		t.add(span{ID: t.newID(), Parent: id, Name: "http.respond", Plane: plane, Start: tw.header, End: end})
		// Server-Timing carries durations only. The controller runs its
		// phases one after another right before the response, so they
		// are laid end to end, in header order, ending where the
		// response write begins.
		phases := parseServerTiming(tw.serverTiming)
		var total int64
		for _, p := range phases {
			total += p.ns
		}
		at := max(tw.header-total, start)
		for _, p := range phases {
			t.add(span{ID: t.newID(), Parent: id, Name: "phase." + p.name, Plane: plane, Start: at, End: at + p.ns})
			at += p.ns
		}
	})
}

// planeOf finds the plane a mutating request will run on: the pinned
// fabric of a connect, or the plane of the session a branch or
// disconnect names.
func planeOf(ctl *switchd.Controller, body []byte) int {
	var req struct {
		Fabric  *int   `json:"fabric"`
		Session uint64 `json:"session"`
	}
	if json.Unmarshal(body, &req) != nil {
		return -1
	}
	if req.Fabric != nil && *req.Fabric >= 0 {
		return *req.Fabric
	}
	if req.Session != 0 {
		if info, ok := ctl.Session(req.Session); ok {
			return info.Fabric
		}
	}
	return -1
}

type timingPhase struct {
	name string
	ns   int64
}

// parseServerTiming reads "name;dur=<ms>, ..." in order.
func parseServerTiming(h string) []timingPhase {
	var out []timingPhase
	for _, part := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok {
			continue
		}
		ms, ok := strings.CutPrefix(strings.TrimSpace(params), "dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil {
			continue
		}
		out = append(out, timingPhase{name: name, ns: int64(v * 1e6)})
	}
	return out
}

// timedWriter notes when the handler starts its response, the
// Server-Timing header it sent, the status and the body size.
type timedWriter struct {
	http.ResponseWriter
	trace        *traceLog
	status       int
	header       int64
	serverTiming string
	bytes        int64
}

func (w *timedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.header = w.trace.now()
		w.serverTiming = w.Header().Get("Server-Timing")
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// ---------------------------------------------------------------------------
// cluster boundary: a WALCommitter wrapper around Server.Commit.

func (t *traceLog) wrapCommitter(commit func(uint64)) func(uint64) {
	return func(upTo uint64) {
		if !t.enabled() {
			commit(upTo)
			return
		}
		start := t.now()
		commit(upTo)
		t.add(span{ID: t.newID(), Name: "cluster.commit", Plane: -1, Start: start, End: t.now(), Value: int64(upTo)})
	}
}

// ---------------------------------------------------------------------------
// analysis

// spanTree indexes spans by parent. Fabric spans, recorded under the
// handler serving their plane, are moved under that handler's
// route_search phase: the fabric call is the part of route_search spent
// in the router.
type spanTree struct {
	children map[uint64][]span
}

func buildTree(spans []span) spanTree {
	tr := spanTree{children: make(map[uint64][]span)}
	routeSearch := map[uint64]uint64{} // handler id -> its route_search phase id
	for _, s := range spans {
		if s.Name == "phase.route_search" {
			routeSearch[s.Parent] = s.ID
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if strings.HasPrefix(s.Name, "fabric.") {
			if rs, ok := routeSearch[s.Parent]; ok {
				s.Parent = rs
			}
		}
		tr.children[s.Parent] = append(tr.children[s.Parent], s)
	}
	return tr
}

func (tr spanTree) self(s span) int64 { return selfTime(s, tr.children[s.ID]) }

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, v := range xs {
		s += v
	}
	return float64(s) / float64(len(xs))
}

// meanUs is the mean duration of spans in microseconds.
func meanUs(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total int64
	for _, s := range spans {
		total += s.dur()
	}
	return float64(total) / float64(len(spans)) / 1e3
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.dur())
	}
	return out
}

func byName(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// phaseMeanUs is the mean per-request time of one Server-Timing phase
// over the given handler spans, counting a request that did not report
// the phase as zero.
func (tr spanTree) phaseMeanUs(handlers []span, phase string) float64 {
	if len(handlers) == 0 {
		return 0
	}
	var total int64
	for _, h := range handlers {
		for _, c := range tr.children[h.ID] {
			if c.Name == "phase."+phase {
				total += c.dur()
			}
		}
	}
	return float64(total) / float64(len(handlers)) / 1e3
}

func mutating(path string) bool {
	return path == "/v1/connect" || path == "/v1/branch" || path == "/v1/disconnect"
}

// handlersFor returns the 2xx http.handler spans whose path matches.
func handlersFor(spans []span, match func(string) bool) []span {
	var out []span
	for _, s := range spans {
		if match(s.Path) && s.Status >= 200 && s.Status < 300 {
			out = append(out, s)
		}
	}
	return out
}
