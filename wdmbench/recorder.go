package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// opKind classifies a request by the endpoint it hits.
type opKind int

const (
	opConnect opKind = iota
	opBranch
	opDisconnect
	opRead // GET /v1/status and GET /metrics
	opOther
	numOps
)

var opNames = [numOps]string{"connect", "branch", "disconnect", "read", "other"}

func classify(method, path string) opKind {
	switch {
	case method == http.MethodPost && path == "/v1/connect":
		return opConnect
	case method == http.MethodPost && path == "/v1/branch":
		return opBranch
	case method == http.MethodPost && path == "/v1/disconnect":
		return opDisconnect
	case method == http.MethodGet && (path == "/v1/status" || path == "/metrics"):
		return opRead
	}
	return opOther
}

// opCounts is the client-side account of every request sent, by
// endpoint class: answered 2xx, answered 409 (a fabric block), any
// other status, or no answer at all.
type opCounts struct {
	OK        [numOps]int64
	Blocked   [numOps]int64
	OtherHTTP [numOps]int64
	Transport [numOps]int64
}

func (c *opCounts) add(o opCounts) {
	for i := range c.OK {
		c.OK[i] += o.OK[i]
		c.Blocked[i] += o.Blocked[i]
		c.OtherHTTP[i] += o.OtherHTTP[i]
		c.Transport[i] += o.Transport[i]
	}
}

// attempted is every request sent.
func (c *opCounts) attempted() int64 {
	var n int64
	for i := range c.OK {
		n += c.OK[i] + c.Blocked[i] + c.OtherHTTP[i] + c.Transport[i]
	}
	return n
}

// failed counts transport errors and every non-2xx answer. Blocks count
// too: every workload runs at its backend's sufficient bound, where
// Theorem 1 says no request blocks.
func (c *opCounts) failed() int64 {
	var n int64
	for i := range c.OK {
		n += c.Blocked[i] + c.OtherHTTP[i] + c.Transport[i]
	}
	return n
}

// mutations is the 2xx connect, branch and disconnect count.
func (c *opCounts) mutations() int64 {
	return c.OK[opConnect] + c.OK[opBranch] + c.OK[opDisconnect]
}

// recorder is the http.RoundTripper every load client sends through. It
// times each request from the call to RoundTrip until the caller closes
// the response body (the client reads the whole body first), keeps the
// raw samples while sampling is on, and counts every request's outcome
// for the reconciliation against the server's counters. With a trace
// attached it also tags each request with a request id and records a
// client.request span.
type recorder struct {
	next  http.RoundTripper
	trace *traceLog // nil outside the traced run

	sampling atomic.Bool

	mu      sync.Mutex
	counts  opCounts
	samples [numOps][]time.Duration
}

// sampleCap bounds each endpoint's samples per run (about 100 s of the
// fastest workload).
const sampleCap = 1 << 20

func newRecorder(next http.RoundTripper, trace *traceLog) (*recorder, error) {
	r := &recorder{next: next, trace: trace}
	for i := range r.samples {
		buf, err := offHeap(sampleCap)
		if err != nil {
			return nil, err
		}
		r.samples[i] = buf
	}
	return r, nil
}

// offHeap returns an empty sample buffer of the given capacity in memory
// the Go heap does not own, so the samples do not count toward the live
// heap that sets the server's GC target in this shared process. (With
// the same capacity allocated on the heap instead, unicast-cycle ran
// about 20% more ops_per_s through fewer GC cycles and read 40 MB more
// peak RSS, in four alternating 10 s runs each on a 2-vCPU VM.) The
// pages the samples fill are resident all the same; since they fill a
// private mapping from its start, sampleBytes knows exactly how many and
// peak_rss_mb leaves them out. The mapping lives until exit.
func offHeap(n int) ([]time.Duration, error) {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping a sample buffer: %w", err)
	}
	return unsafe.Slice((*time.Duration)(unsafe.Pointer(&mem[0])), n)[:0], nil
}

// requestIDHeader carries the client span's id so the server-side
// handler span can name it as parent.
const requestIDHeader = "X-Bench-Request"

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	op := classify(req.Method, req.URL.Path)
	var spanID uint64
	tracing := r.trace.enabled()
	if tracing {
		spanID = r.trace.newID()
		req = req.Clone(req.Context())
		req.Header.Set(requestIDHeader, strconv.FormatUint(spanID, 10))
	}
	start := time.Now()
	var startNs int64
	if tracing {
		startNs = r.trace.now()
	}
	resp, err := r.next.RoundTrip(req)
	done := func(status int, transportErr bool) {
		d := time.Since(start)
		if tracing {
			r.trace.add(span{ID: spanID, Name: "client.request", Path: req.URL.Path,
				Start: startNs, End: r.trace.now(), Status: status})
		}
		r.observe(op, status, transportErr, d)
	}
	if err != nil {
		done(0, true)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { done(resp.StatusCode, false) }}
	return resp, nil
}

func (r *recorder) observe(op opKind, status int, transportErr bool, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case transportErr:
		r.counts.Transport[op]++
	case status >= 200 && status < 300:
		r.counts.OK[op]++
	case status == http.StatusConflict:
		r.counts.Blocked[op]++
	default:
		r.counts.OtherHTTP[op]++
	}
	if r.sampling.Load() && len(r.samples[op]) < cap(r.samples[op]) {
		r.samples[op] = append(r.samples[op], d)
	}
}

// snapshot returns the outcome counts and the samples. The samples are
// the recorder's own slices, not copies: callers read them only once
// sampling is off.
func (r *recorder) snapshot() (opCounts, [numOps][]time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts, r.samples
}

// sampleBytes is the resident memory the samples have filled: the whole
// pages of each buffer up to its last sample.
func (r *recorder) sampleBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	page := int64(os.Getpagesize())
	var n int64
	for _, s := range r.samples {
		n += (int64(len(s))*8 + page - 1) / page * page
	}
	return n
}

// timedBody reports the end of a request when the caller closes the
// body, once.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
