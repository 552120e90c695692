// Package span is a stdlib-only distributed-tracing toolkit for the
// serving path: W3C traceparent-compatible trace ids, nested spans
// propagated through context.Context, and a lock-sharded ring buffer of
// completed traces with tail sampling.
//
// The paper's nonblocking guarantee is a per-request claim — "blocked
// == 0 at the sufficient bound" is about every individual Connect and
// AddBranch, not an aggregate. Metrics alone cannot answer "where did
// THIS request's latency go" or "which middle modules did THIS blocked
// request try"; spans can. Every serving request gets a trace: the HTTP
// handler opens the root span, the controller nests session and fabric
// operation spans under it, and the multistage router reports each
// middle-switch attempt as a leaf span. Completed traces land in the
// Tracer's ring (served at GET /v1/debug/spans) and may be exported as
// JSON lines.
//
// Sampling is tail-based: the keep/drop decision is taken when the root
// span ends, so a trace that turned out to be blocked, errored, or slow
// is always kept (those are exactly the traces worth a post-mortem) and
// only routine fast successes are down-sampled. Until then a trace holds
// raw ids and typed attribute values; only a kept trace is formatted
// into a TraceRecord.
package span

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/wdm"
)

// TraceID is the 16-byte W3C trace id.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		putUint64(t[:8], rand.Uint64())
		putUint64(t[8:], rand.Uint64())
	}
	return t
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		putUint64(s[:], rand.Uint64())
	}
	return s
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// FlagSampled is the traceparent sampled flag (trace-flags bit 0).
const FlagSampled byte = 0x01

// FormatTraceparent renders a W3C traceparent header value
// (version 00): "00-<trace-id>-<parent-id>-<flags>".
func FormatTraceparent(t TraceID, s SpanID, flags byte) string {
	var b [55]byte
	copy(b[:3], "00-")
	hex.Encode(b[3:35], t[:])
	b[35] = '-'
	hex.Encode(b[36:52], s[:])
	b[52] = '-'
	hex.Encode(b[53:], []byte{flags})
	return string(b[:])
}

// ParseTraceparent parses a version-00 W3C traceparent header value. It
// rejects malformed versions, lengths, non-hex ids, and the all-zero
// trace and span ids the spec forbids.
func ParseTraceparent(h string) (TraceID, SpanID, byte, error) {
	var t TraceID
	var s SpanID
	// 2 (version) + 1 + 32 (trace id) + 1 + 16 (parent id) + 1 + 2 (flags)
	if len(h) != 55 {
		return t, s, 0, fmt.Errorf("span: traceparent %q: want 55 chars, have %d", h, len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, 0, fmt.Errorf("span: traceparent %q: bad field separators", h)
	}
	if h[:2] == "ff" {
		return t, s, 0, fmt.Errorf("span: traceparent %q: version ff is invalid", h)
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(h[:2])); err != nil {
		return t, s, 0, fmt.Errorf("span: traceparent %q: bad version: %w", h, err)
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return t, s, 0, fmt.Errorf("span: traceparent %q: bad trace id: %w", h, err)
	}
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return t, s, 0, fmt.Errorf("span: traceparent %q: bad parent id: %w", h, err)
	}
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(h[53:55])); err != nil {
		return t, s, 0, fmt.Errorf("span: traceparent %q: bad flags: %w", h, err)
	}
	if t.IsZero() {
		return t, s, 0, fmt.Errorf("span: traceparent %q: all-zero trace id", h)
	}
	if s.IsZero() {
		return t, s, 0, fmt.Errorf("span: traceparent %q: all-zero parent id", h)
	}
	return t, s, fb[0], nil
}

// Status values of a finished span.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusBlocked = "blocked"
)

// Attr is one structured span attribute of a kept trace.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is one finished span as kept in a TraceRecord.
type SpanRecord struct {
	SpanID     string    `json:"span_id"`
	Parent     string    `json:"parent_span_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Status     string    `json:"status"`
	Detail     string    `json:"detail,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace: the root span plus every nested
// span it accumulated, as served at /v1/debug/spans and written to the
// span log.
type TraceRecord struct {
	TraceID string `json:"trace_id"`
	// Root is the root span's name; Start/DurationNs are the root
	// span's.
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	// Blocked/Error summarize span statuses across the whole trace.
	Blocked bool         `json:"blocked"`
	Error   bool         `json:"error"`
	Spans   []SpanRecord `json:"spans"`
}

// status is a span's outcome; statusNames maps it to its wire string.
type status uint8

const (
	statusOK status = iota
	statusError
	statusBlocked
)

var statusNames = [...]string{statusOK: StatusOK, statusError: StatusError, statusBlocked: StatusBlocked}

// attrKind tags the typed value an attr holds.
type attrKind uint8

const (
	attrInt    attrKind = iota // num holds an int64
	attrUint                   // num holds a uint64
	attrString                 // str
	attrInts                   // ints[off:off+n] of the trace
	attrConn                   // (port, wave) pairs in ints from off: the source, then n dests
)

// attr is one attribute as a live span records it: a typed value,
// neither boxed nor formatted. A trace keeps the attributes of all its
// spans in one slice; owner says whose each is. Slice values are copied
// into the trace's int arena, so callers may reuse their buffers.
type attr struct {
	owner  *Span
	key    string
	kind   attrKind
	off, n int32
	num    uint64
	str    string
}

// Inline capacities of a trace record: a routine serving request fits
// in them, so tracing it costs one allocation for the whole tree. A
// larger trace spills to the heap and stays correct.
const (
	inlineSpans = 6
	inlineAttrs = 16
	inlineInts  = 16
)

// traceRec accumulates a trace in flight. Spans of one request usually
// finish on one goroutine, but the mutex makes cross-goroutine fan-out
// safe too. Nothing is formatted while the trace is live: ids stay
// bytes and attributes stay typed until the tail-sampling verdict at
// the root's End says the trace is kept (see Tracer.finish).
type traceRec struct {
	tracer  *Tracer
	traceID TraceID
	mu      sync.Mutex
	tid     string // hex trace id, built on first TraceID call

	// method and path name an HTTP root span ("http <method> <path>");
	// the name is only built when the trace is kept.
	method, path string

	blocked, errored, finished bool

	root  Span
	spans [inlineSpans]Span // child spans handed out in order
	nspan int
	done  []*Span // ended spans, in End order
	attrs []attr
	ints  []int

	doneBuf [inlineSpans + 1]*Span
	attrBuf [inlineAttrs]attr
	intBuf  [inlineInts]int

	sw statusWriter // the HTTP middleware's status capture
}

func newTraceRec(t *Tracer) *traceRec {
	r := &traceRec{tracer: t}
	r.done = r.doneBuf[:0]
	r.attrs = r.attrBuf[:0]
	r.ints = r.intBuf[:0]
	return r
}

// Span is one live span. The zero/nil Span is inactive: every method is
// a cheap no-op, so call sites never branch on "is tracing on". A span
// is frozen by End: attributes and status set afterwards are ignored.
type Span struct {
	rec    *traceRec
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	dur    time.Duration
	status status
	root   bool
	ended  bool
	done   int32 // position in the trace's End order, once ended
	detail string
}

// Active reports whether the span records anything.
func (s *Span) Active() bool { return s != nil && s.rec != nil }

// TraceID returns the hex trace id, or "" for an inactive span. The
// string is built once per trace.
func (s *Span) TraceID() string {
	if !s.Active() {
		return ""
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tid == "" {
		r.tid = r.traceID.String()
	}
	return r.tid
}

// Traceparent renders the span's W3C traceparent value (the span as
// parent), or "" for an inactive span.
func (s *Span) Traceparent() string {
	if !s.Active() {
		return ""
	}
	return FormatTraceparent(s.rec.traceID, s.id, FlagSampled)
}

// setAttr appends a to the trace unless s is inactive or ended, with
// ints and then the (port, wave) pairs of dests copied into the trace's
// int arena from a.off on.
func (s *Span) setAttr(a attr, ints []int, dests []wdm.PortWave) {
	if !s.Active() {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ended {
		return
	}
	a.owner = s
	a.off = int32(len(r.ints))
	r.ints = append(r.ints, ints...)
	for _, d := range dests {
		r.ints = append(r.ints, int(d.Port), int(d.Wave))
	}
	r.attrs = append(r.attrs, a)
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.setAttr(attr{key: key, kind: attrInt, num: uint64(v)}, nil, nil)
}

// SetUint attaches an unsigned integer attribute.
func (s *Span) SetUint(key string, v uint64) {
	s.setAttr(attr{key: key, kind: attrUint, num: v}, nil, nil)
}

// SetString attaches a string attribute.
func (s *Span) SetString(key string, v string) {
	s.setAttr(attr{key: key, kind: attrString, str: v}, nil, nil)
}

// SetInts attaches an integer-list attribute. v is copied.
func (s *Span) SetInts(key string, v []int) {
	s.setAttr(attr{key: key, kind: attrInts, n: int32(len(v))}, v, nil)
}

// SetConnection attaches a connection attribute, recorded in wdm codec
// form ("0.0>5.0,9.0") if the trace is kept. c is copied, and only
// formatted for a kept trace.
func (s *Span) SetConnection(key string, c wdm.Connection) {
	src := []int{int(c.Source.Port), int(c.Source.Wave)}
	s.setAttr(attr{key: key, kind: attrConn, n: int32(len(c.Dests))}, src, c.Dests)
}

// SetError marks the span errored with the given detail.
func (s *Span) SetError(detail string) { s.setStatus(statusError, detail) }

// SetBlocked marks the span blocked — the status tail sampling always
// keeps — with the given detail.
func (s *Span) SetBlocked(detail string) { s.setStatus(statusBlocked, detail) }

func (s *Span) setStatus(st status, detail string) {
	if !s.Active() || s.ended {
		return
	}
	s.status = st
	s.detail = detail
}

// StartChild opens a nested span under s. For an inactive s the child
// is inactive too.
func (s *Span) StartChild(name string) *Span {
	if !s.Active() {
		return nil
	}
	r := s.rec
	var c *Span
	r.mu.Lock()
	if r.nspan < len(r.spans) {
		c = &r.spans[r.nspan]
		r.nspan++
	}
	r.mu.Unlock()
	if c == nil {
		c = new(Span)
	}
	*c = Span{rec: r, name: name, id: NewSpanID(), parent: s.id, start: time.Now()}
	return c
}

// End finishes the span, recording its duration. Ending the root span
// completes the trace: the tracer takes its tail-sampling decision and,
// if kept, formats the trace into the ring buffer and span log. End is
// idempotent; a span ended after its root is dropped.
func (s *Span) End() {
	if !s.Active() || s.ended {
		return
	}
	dur := time.Since(s.start)
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	s.ended = true
	s.dur = dur
	s.done = int32(len(r.done))
	r.done = append(r.done, s)
	switch s.status {
	case statusBlocked:
		r.blocked = true
	case statusError:
		r.errored = true
	}
	if s.root {
		r.finished = true
		r.tracer.finish(r)
	}
}

// record formats the finished trace. The caller holds r.mu.
func (r *traceRec) record() TraceRecord {
	if r.tid == "" {
		r.tid = r.traceID.String()
	}
	rootName := r.root.name
	if r.method != "" {
		rootName = "http " + r.method + " " + r.path
	}
	tr := TraceRecord{
		TraceID:    r.tid,
		Root:       rootName,
		Start:      r.root.start,
		DurationNs: r.root.dur.Nanoseconds(),
		Blocked:    r.blocked,
		Error:      r.errored,
		Spans:      make([]SpanRecord, len(r.done)),
	}
	slot := func(j int32) wdm.PortWave {
		return wdm.PortWave{Port: wdm.Port(r.ints[j]), Wave: wdm.Wavelength(r.ints[j+1])}
	}
	for i, s := range r.done {
		sr := SpanRecord{
			SpanID:     s.id.String(),
			Name:       s.name,
			Start:      s.start,
			DurationNs: s.dur.Nanoseconds(),
			Status:     statusNames[s.status],
			Detail:     s.detail,
		}
		if s.root {
			sr.Name = rootName
		}
		if !s.parent.IsZero() {
			sr.Parent = s.parent.String()
		}
		tr.Spans[i] = sr
	}
	// One pass hands each attribute to its span's record; attributes of
	// a span that never ended are not kept.
	for _, a := range r.attrs {
		if !a.owner.ended {
			continue
		}
		var v any
		switch a.kind {
		case attrInt:
			v = int64(a.num)
		case attrUint:
			v = a.num
		case attrString:
			v = a.str
		case attrInts:
			v = append([]int(nil), r.ints[a.off:a.off+a.n]...)
		case attrConn:
			c := wdm.Connection{Source: slot(a.off), Dests: make([]wdm.PortWave, a.n)}
			for j := range c.Dests {
				c.Dests[j] = slot(a.off + 2 + 2*int32(j))
			}
			v = wdm.FormatConnection(c)
		}
		sr := &tr.Spans[a.owner.done]
		sr.Attrs = append(sr.Attrs, Attr{Key: a.key, Value: v})
	}
	return tr
}

type ctxKey int

const spanKey ctxKey = iota

// FromContext returns the active span carried by ctx, or nil (an
// inactive span — all methods still safe).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWith returns ctx carrying s.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// Start opens a child span under the span carried by ctx and returns
// the derived context carrying the child. Without an active span in ctx
// it returns ctx unchanged and an inactive span — tracing-off call
// sites pay two pointer reads.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if !parent.Active() {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWith(ctx, child), child
}
