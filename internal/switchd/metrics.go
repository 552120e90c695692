package switchd

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multistage"
	"repro/internal/obs"
)

// routeBucketsMicros are the upper bounds (inclusive, microseconds) of
// the operation-latency histogram buckets; a final overflow bucket
// catches everything slower. All three operation histograms (connect,
// branch, disconnect) share these bounds so their series line up in
// dashboards.
var routeBucketsMicros = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// histExemplar is the most recent traced observation that landed in
// one latency bucket, for OpenMetrics exemplar exposition: the /metrics
// scrape links each bucket to a concrete trace id at /v1/debug/spans.
// It is updated in place under its own lock, so recording one never
// allocates (the trace id string is the span's, built once per trace).
type histExemplar struct {
	mu      sync.Mutex
	traceID string
	d       time.Duration
	at      int64 // unix ns at observation
}

// latencyHist is one operation's latency histogram. Counts are
// lock-free atomics; a snapshot is monotone-consistent, not atomic.
type latencyHist struct {
	count     atomic.Int64
	sumNs     atomic.Int64
	buckets   []atomic.Int64 // len(routeBucketsMicros)+1, last = overflow
	exemplars []histExemplar
}

func newLatencyHist() *latencyHist {
	n := len(routeBucketsMicros) + 1
	return &latencyHist{
		buckets:   make([]atomic.Int64, n),
		exemplars: make([]histExemplar, n),
	}
}

func (h *latencyHist) observe(d time.Duration) { h.observeEx(d, "", 0) }

// exemplarStamp is the exemplar timestamp of an observation made now:
// unix nanoseconds, or 0 (unused) when traceID is empty.
func exemplarStamp(traceID string) int64 {
	if traceID == "" {
		return 0
	}
	return time.Now().UnixNano()
}

// bucketFor returns the index of the bucket d falls in: the first whose
// upper bound is >= d (Prometheus le semantics), else the overflow.
func bucketFor(d time.Duration) int {
	for j, ub := range routeBucketsMicros {
		if d <= time.Duration(ub)*time.Microsecond {
			return j
		}
	}
	return len(routeBucketsMicros)
}

// observeEx records one observation and, when the request was traced,
// makes it the bucket's exemplar stamped at (unix ns; see
// exemplarStamp) — last-writer-wins, exemplars are a sample, not a log.
func (h *latencyHist) observeEx(d time.Duration, traceID string, at int64) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	i := bucketFor(d)
	h.buckets[i].Add(1)
	if traceID != "" {
		e := &h.exemplars[i]
		e.mu.Lock()
		e.traceID, e.d, e.at = traceID, d, at
		e.mu.Unlock()
	}
}

// exemplarSnapshot assembles the per-bucket exemplars in the shape
// obs.PromWriter.HistogramE expects (zero value = no exemplar).
func (h *latencyHist) exemplarSnapshot() []obs.Exemplar {
	out := make([]obs.Exemplar, len(h.buckets))
	for i := range h.exemplars {
		e := &h.exemplars[i]
		e.mu.Lock()
		traceID, d, at := e.traceID, e.d, e.at
		e.mu.Unlock()
		if traceID != "" {
			out[i] = obs.Exemplar{
				Labels: []obs.Label{{Name: "trace_id", Value: traceID}},
				Value:  d.Seconds(),
				Ts:     float64(at) / 1e9,
			}
		}
	}
	return out
}

// fabricMetrics is one replica's counter set. failedMiddles is a gauge
// mirroring the plane's failed middle-module count; the failure plane
// updates it under failMu together with the fabric's own copy.
type fabricMetrics struct {
	routed        atomic.Int64
	blocked       atomic.Int64
	active        atomic.Int64
	failedMiddles atomic.Int64
}

// Metrics is the controller's counter registry. All counters are
// lock-free atomics; Snapshot assembles a consistent-enough view for
// serving (counters are independently monotone, so a snapshot is always
// a valid state some interleaving could have produced).
//
// The headline counter is Blocked: with every fabric provisioned at or
// above the Theorem 1/2 sufficient bound it must read zero forever —
// the paper's nonblocking claim as a monitorable invariant.
type Metrics struct {
	model        string
	construction string
	m            int

	connectOK    atomic.Int64
	branchOK     atomic.Int64
	disconnectOK atomic.Int64
	blocked      atomic.Int64
	inadmissible atomic.Int64
	capRejects   atomic.Int64
	drainRejects atomic.Int64

	// Failure-plane counters: sessions live-migrated off failed middle
	// modules, and sessions dropped because no spare could carry them.
	migrated atomic.Int64
	dropped  atomic.Int64

	perFabric []*fabricMetrics

	// Per-operation latency histograms: time spent inside the fabric
	// lock per Add (connect), AddBranch (branch), and Release
	// (disconnect).
	connectLat    *latencyHist
	branchLat     *latencyHist
	disconnectLat *latencyHist

	// Durable state plane: group-commit fsync latency and the session
	// count restored at the last startup (0 without a data directory).
	walFsync  *latencyHist
	recovered atomic.Int64

	// Per-phase latency histograms (wdm_phase_seconds{phase=...}),
	// indexed by the phase constants: where a request's time actually
	// went — admission, lock wait, route search, WAL append, replication
	// ack, respond.
	phase [numPhases]*latencyHist
}

func newMetrics(p multistage.Params, replicas int) *Metrics {
	m := &Metrics{
		model:         p.Model.String(),
		construction:  p.Construction.String(),
		m:             p.M,
		connectLat:    newLatencyHist(),
		branchLat:     newLatencyHist(),
		disconnectLat: newLatencyHist(),
		walFsync:      newLatencyHist(),
	}
	for i := range m.phase {
		m.phase[i] = newLatencyHist()
	}
	for i := 0; i < replicas; i++ {
		m.perFabric = append(m.perFabric, &fabricMetrics{})
	}
	return m
}

// Blocked returns the total blocking events observed (Connect and
// AddBranch combined, all fabrics).
func (m *Metrics) Blocked() int64 { return m.blocked.Load() }

// Routed returns the total successful Connect count.
func (m *Metrics) Routed() int64 { return m.connectOK.Load() }

// MigratedSessions returns the total sessions live-migrated off failed
// middle modules; DroppedSessions those the failure plane released for
// lack of spare capacity.
func (m *Metrics) MigratedSessions() int64 { return m.migrated.Load() }
func (m *Metrics) DroppedSessions() int64  { return m.dropped.Load() }

func (h *latencyHist) snapshot(op string) OpLatency {
	o := OpLatency{Op: op, Count: h.count.Load(), SumNs: h.sumNs.Load()}
	if o.Count > 0 {
		o.MeanNs = o.SumNs / o.Count
	}
	for i := range h.buckets {
		b := LatencyBucket{Count: h.buckets[i].Load()}
		if i < len(routeBucketsMicros) {
			b.LEMicros = routeBucketsMicros[i]
		}
		o.Buckets = append(o.Buckets, b)
	}
	o.P50Micros = HistQuantileMicros(o.Buckets, 0.50)
	o.P99Micros = HistQuantileMicros(o.Buckets, 0.99)
	return o
}

// Snapshot assembles the current counter values. (The Snapshot type
// itself lives in the api package — it is part of the /v1 wire
// contract.)
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Model:            m.model,
		Construction:     m.construction,
		M:                m.m,
		ConnectOK:        m.connectOK.Load(),
		BranchOK:         m.branchOK.Load(),
		DisconnectOK:     m.disconnectOK.Load(),
		Blocked:          m.blocked.Load(),
		Inadmissible:     m.inadmissible.Load(),
		CapRejects:       m.capRejects.Load(),
		DrainRejects:     m.drainRejects.Load(),
		MigratedSessions: m.migrated.Load(),
		DroppedSessions:  m.dropped.Load(),
		RouteBoundsUs:    routeBucketsMicros,
	}
	s.Ops = []OpLatency{
		m.connectLat.snapshot("connect"),
		m.branchLat.snapshot("branch"),
		m.disconnectLat.snapshot("disconnect"),
	}
	for p := phase(0); p < numPhases; p++ {
		if ph := m.phase[p].snapshot(phaseNames[p]); ph.Count > 0 {
			s.Phases = append(s.Phases, ph)
		}
	}
	connect, branch := s.Ops[0], s.Ops[1]
	s.RouteCount = connect.Count + branch.Count
	if s.RouteCount > 0 {
		s.RouteMeanNs = (connect.SumNs + branch.SumNs) / s.RouteCount
	}
	for i := range connect.Buckets {
		s.RouteLatency = append(s.RouteLatency, LatencyBucket{
			LEMicros: connect.Buckets[i].LEMicros,
			Count:    connect.Buckets[i].Count + branch.Buckets[i].Count,
		})
	}
	for _, f := range m.perFabric {
		s.PerFabric = append(s.PerFabric, FabricSnapshot{
			Routed:        f.routed.Load(),
			Blocked:       f.blocked.Load(),
			Active:        f.active.Load(),
			FailedMiddles: int(f.failedMiddles.Load()),
		})
	}
	return s
}

// HistQuantileMicros estimates the q-quantile (0 < q <= 1) of a bucketed
// latency distribution in microseconds, by linear interpolation within
// the bucket holding the quantile rank — the same estimator Prometheus's
// histogram_quantile applies. Observations in the overflow bucket are
// reported as the largest finite bound (the estimate is a lower bound
// there). Returns 0 for an empty histogram.
func HistQuantileMicros(buckets []LatencyBucket, q float64) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lo := float64(0)
	for _, b := range buckets {
		if b.Count == 0 {
			if b.LEMicros > 0 {
				lo = float64(b.LEMicros)
			}
			continue
		}
		if float64(cum+b.Count) >= rank {
			if b.LEMicros == 0 { // overflow: no upper bound to interpolate to
				return lo
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			return lo + (float64(b.LEMicros)-lo)*frac
		}
		cum += b.Count
		if b.LEMicros > 0 {
			lo = float64(b.LEMicros)
		}
	}
	return lo
}

// Publish registers the registry with the process-global expvar
// namespace under the given name, making it visible at the standard
// /debug/vars endpoint. Publishing the same name twice is a no-op (the
// first registration wins), so tests constructing many controllers can
// call it freely.
func (m *Metrics) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}
