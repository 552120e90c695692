package switchd

import (
	"strconv"
	"time"

	"repro/internal/obs/span"
)

// Phase attribution: every serving request is split into the phases
// below, timed by a stack-allocated phaseTimer threaded through the
// controller's unexported hot-path methods. The timer is deliberately
// allocation-free — a fixed array of duration accumulators, nil-safe on
// every method — so the bench path can run with a nil timer (or a stack
// one) at zero heap cost, benchmark-asserted in phase_alloc_test.go.
//
// The phases answer the question ROADMAP item 1 raises: when the
// 4-core throughput row is slower than 1-core, is the time going to
// lock acquisition (the per-controller mutex funnel), the route search
// itself, the WAL group commit, or the replication ack barrier?

type phase int

const (
	// phaseAdmission is time spent in the admission gate: draining
	// check, cap reservation, fabric pick — everything before the
	// fabric section.
	phaseAdmission phase = iota
	// phaseLockWait is the acquire-to-hold delta on the fabric plane
	// mutex: how long the request queued behind other holders. This is
	// the mutex-funnel number.
	phaseLockWait
	// phaseRouteSearch is time inside the fabric lock spent in the
	// router (Network.Add / AddBranch / Release).
	phaseRouteSearch
	// phaseWALAppend is time waiting for the durable plane's group
	// commit (fsync batch), excluding the replication ack below.
	phaseWALAppend
	// phaseReplAck is the slice of the group commit spent in the
	// cluster Committer barrier waiting for a standby acknowledgement.
	phaseReplAck
	// phaseRespond is response encoding and write (HTTP path only).
	phaseRespond

	numPhases
)

// phaseNames index by phase; these are the `phase` label values of
// wdm_phase_seconds and the Server-Timing metric names.
var phaseNames = [numPhases]string{
	"admission_wait",
	"lock_wait",
	"route_search",
	"wal_append",
	"repl_ack",
	"respond",
}

// phaseAttrs are the span attribute keys, precomputed so annotating an
// active span never concatenates strings on the hot path.
var phaseAttrs = [numPhases]string{
	"phase_admission_wait_us",
	"phase_lock_wait_us",
	"phase_route_search_us",
	"phase_wal_append_us",
	"phase_repl_ack_us",
	"phase_respond_us",
}

// phaseTimer accumulates one request's per-phase durations. The zero
// value is ready; a nil *phaseTimer is a no-op on every method, so the
// exported Controller methods (which have no HTTP response to time)
// pass nil through unchanged.
type phaseTimer struct {
	d [numPhases]time.Duration
}

// add accumulates d into phase p.
func (pt *phaseTimer) add(p phase, d time.Duration) {
	if pt == nil || d < 0 {
		return
	}
	pt.d[p] += d
}

// observe folds the accumulated durations into the per-phase latency
// histograms. traceID attaches an exemplar to each touched phase when
// non-empty (the bench path passes "" and stays allocation-free).
func (pt *phaseTimer) observe(m *Metrics, traceID string) {
	if pt == nil {
		return
	}
	at := exemplarStamp(traceID)
	for p := phase(0); p < numPhases; p++ {
		if pt.d[p] > 0 {
			m.phase[p].observeEx(pt.d[p], traceID, at)
		}
	}
}

// annotate attaches the non-zero phases to sp as microsecond span
// attributes.
func (pt *phaseTimer) annotate(sp *span.Span) {
	if pt == nil || !sp.Active() {
		return
	}
	for p := phase(0); p < numPhases; p++ {
		if pt.d[p] > 0 {
			sp.SetInt(phaseAttrs[p], pt.d[p].Microseconds())
		}
	}
}

// serverTiming renders the accumulated phases as a Server-Timing
// header value ("lock_wait;dur=0.041, route_search;dur=0.012", dur in
// milliseconds per the spec). Empty when nothing was timed. HTTP-path
// only; the one allocation is the returned string.
func (pt *phaseTimer) serverTiming() string {
	if pt == nil {
		return ""
	}
	var arr [192]byte
	b := arr[:0]
	for p := phase(0); p < numPhases; p++ {
		if pt.d[p] <= 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, phaseNames[p]...)
		b = append(b, ";dur="...)
		b = appendMillis(b, pt.d[p])
	}
	return string(b)
}

// appendMillis appends d in milliseconds with three decimals, exactly as
// strconv.FormatFloat(float64(d)/1e6, 'f', 3, 64) renders it, in integer
// arithmetic. Away from an exact half microsecond the float is too close
// to d/1e6 (for any d under 10^9 ms) to round differently; at an exact
// half its binary value decides the rounding, so that case defers to
// the float.
func appendMillis(b []byte, d time.Duration) []byte {
	ns := int64(d)
	us, rem := ns/1000, ns%1000
	if rem == 500 {
		return strconv.AppendFloat(b, float64(ns)/1e6, 'f', 3, 64)
	}
	if rem > 500 {
		us++
	}
	b = strconv.AppendInt(b, us/1000, 10)
	frac := us % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
