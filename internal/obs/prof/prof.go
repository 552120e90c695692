// Package prof is the controller's always-on profiling harness:
// bounded-rate mutex and block profiling, a ring of periodic profile
// snapshots served over HTTP, and the runtime/metrics essentials as
// Prometheus gauges.
//
// The design goal is "safe to leave on in production": the mutex and
// block profilers are sampled (one event in MutexFraction, events
// longer than BlockRateNs), snapshots are captured off the serving
// path on a timer, and the HTTP handler reads finished snapshots from
// the ring instead of stopping the world per request. CPU profiles are
// the exception — they are captured live for an explicit, bounded
// window because Go keeps no CPU history to snapshot.
package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// ringTypes are the pprof profiles the background loop snapshots. CPU
// is deliberately absent: it has no instantaneous snapshot.
var ringTypes = []string{"heap", "mutex", "block", "goroutine"}

// Config tunes the harness. The zero value enables nothing: no
// profiler rates are touched and no background goroutine starts, so
// embedding the harness in tests costs nothing.
type Config struct {
	// MutexFraction samples 1/n of mutex contention events
	// (runtime.SetMutexProfileFraction). 0 leaves the process rate
	// untouched; 100 is a production-safe default.
	MutexFraction int
	// BlockRateNs samples blocking events lasting at least this many
	// nanoseconds (runtime.SetBlockProfileRate), from the harness
	// goroutine (see Start). 0 leaves the rate untouched; 100µs
	// (100000) is a production-safe default.
	BlockRateNs int
	// Interval is the background snapshot period. 0 disables the
	// background goroutine; profiles are then captured on demand per
	// HTTP request.
	Interval time.Duration
	// Ring is how many snapshots to retain per profile type
	// (default 8).
	Ring int
}

// setBlockRate applies a block-profile rate. Tests replace it to
// observe when, and from where, the harness sets the rate.
var setBlockRate = runtime.SetBlockProfileRate

// snapshot is one captured profile: the binary pprof payload and when
// it was taken.
type snapshot struct {
	t    time.Time
	data []byte
}

// Harness owns the profiler rates and the snapshot rings. Create with
// Start, serve with Handler, release with Stop.
type Harness struct {
	cfg Config

	mu    sync.Mutex
	rings map[string][]snapshot // newest last, capped at cfg.Ring

	prevMutex    int
	restoreMutex bool

	// stop and done belong to the harness goroutine (nil when it does
	// not run): it applies BlockRateNs, then runs the snapshot loop
	// until stop closes, and closes done when it returns.
	stop chan struct{}
	done chan struct{}
}

// Start applies the configured profiler rates and, when Interval > 0,
// starts the background snapshot loop.
//
// The mutex fraction is set before Start returns. The block rate is
// set from the harness goroutine instead: runtime.SetBlockProfileRate
// converts nanoseconds to CPU ticks, and the runtime calibrates that
// conversion on first use by sleeping in 1ms steps until the process
// is 5ms old. Called from here, the sleep would be most of a server's
// set-up. Block profiling therefore starts within about 5ms of
// process start rather than when Start returns.
func Start(cfg Config) *Harness {
	if cfg.Ring <= 0 {
		cfg.Ring = 8
	}
	h := &Harness{cfg: cfg, rings: make(map[string][]snapshot)}
	if cfg.MutexFraction > 0 {
		h.prevMutex = runtime.SetMutexProfileFraction(cfg.MutexFraction)
		h.restoreMutex = true
	}
	if cfg.BlockRateNs > 0 || cfg.Interval > 0 {
		h.stop = make(chan struct{})
		h.done = make(chan struct{})
		go h.run()
	}
	return h
}

// Stop halts the harness goroutine and restores the process profiler
// rates the harness changed. It waits for the block rate to have been
// applied before it turns block profiling off again, so a Start
// followed at once by Stop leaves it off. Safe to call once on a
// started harness.
func (h *Harness) Stop() {
	if h == nil {
		return
	}
	if h.stop != nil {
		close(h.stop)
		<-h.done
	}
	if h.restoreMutex {
		runtime.SetMutexProfileFraction(h.prevMutex)
	}
	if h.cfg.BlockRateNs > 0 {
		setBlockRate(0)
	}
}

// run is the harness goroutine: it applies the block rate (which may
// sleep; see Start) and then, when Interval > 0, snapshots the profile
// rings until Stop.
func (h *Harness) run() {
	defer close(h.done)
	if h.cfg.BlockRateNs > 0 {
		setBlockRate(h.cfg.BlockRateNs)
	}
	if h.cfg.Interval <= 0 {
		return
	}
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			for _, typ := range ringTypes {
				h.captureToRing(typ)
			}
		}
	}
}

// capture renders one pprof profile in binary (debug=0) form.
func capture(typ string) ([]byte, error) {
	p := pprof.Lookup(typ)
	if p == nil {
		return nil, fmt.Errorf("unknown profile %q", typ)
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (h *Harness) captureToRing(typ string) {
	data, err := capture(typ)
	if err != nil {
		return
	}
	h.mu.Lock()
	ring := append(h.rings[typ], snapshot{t: time.Now(), data: data})
	if len(ring) > h.cfg.Ring {
		ring = ring[len(ring)-h.cfg.Ring:]
	}
	h.rings[typ] = ring
	h.mu.Unlock()
}

// nth returns the n-th most recent ring snapshot (n=0 newest), or
// false when the ring holds fewer entries.
func (h *Harness) nth(typ string, n int) (snapshot, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ring := h.rings[typ]
	if n < 0 || n >= len(ring) {
		return snapshot{}, false
	}
	return ring[len(ring)-1-n], true
}

// indexEntry describes one profile type's ring for the no-type index
// response.
type indexEntry struct {
	Type      string    `json:"type"`
	Snapshots int       `json:"snapshots"`
	Newest    time.Time `json:"newest,omitempty"`
	Oldest    time.Time `json:"oldest,omitempty"`
}

// Index summarizes the rings (for GET /v1/debug/prof with no ?type=).
func (h *Harness) Index() []indexEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]indexEntry, 0, len(ringTypes))
	for _, typ := range ringTypes {
		e := indexEntry{Type: typ, Snapshots: len(h.rings[typ])}
		if n := len(h.rings[typ]); n > 0 {
			e.Oldest = h.rings[typ][0].t
			e.Newest = h.rings[typ][n-1].t
		}
		out = append(out, e)
	}
	return out
}

// ServeHTTP serves GET /v1/debug/prof:
//
//	?type=heap|mutex|block|goroutine [&n=K] [&debug=1]
//	?type=cpu [&seconds=N]
//
// Without n the newest ring snapshot is served; when the ring is empty
// (Interval 0, or too early) the profile is captured on the spot.
// debug=1 serves the human-readable text rendering, always freshly
// captured. type=cpu profiles the live process for seconds (default 2,
// max 30) and streams the result.
func (h *Harness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	typ := r.URL.Query().Get("type")
	switch typ {
	case "":
		writeJSON(w, h.Index())
		return
	case "cpu":
		h.serveCPU(w, r)
		return
	case "heap", "mutex", "block", "goroutine", "threadcreate", "allocs":
	default:
		http.Error(w, fmt.Sprintf("unknown profile type %q", typ), http.StatusBadRequest)
		return
	}

	if r.URL.Query().Get("debug") == "1" {
		p := pprof.Lookup(typ)
		if p == nil {
			http.Error(w, fmt.Sprintf("unknown profile %q", typ), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = p.WriteTo(w, 1)
		return
	}

	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "want ?n=<non-negative snapshot index>", http.StatusBadRequest)
			return
		}
		n = v
	}
	snap, ok := h.nth(typ, n)
	if !ok {
		if n > 0 {
			http.Error(w, fmt.Sprintf("ring holds no snapshot %d for %q", n, typ), http.StatusNotFound)
			return
		}
		// Ring empty: capture on demand so the endpoint works without
		// the background loop (tests, Interval=0 deployments).
		data, err := capture(typ)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		snap = snapshot{t: time.Now(), data: data}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, typ+".pb.gz"))
	w.Header().Set("X-Profile-Time", snap.t.UTC().Format(time.RFC3339Nano))
	_, _ = w.Write(snap.data)
}

func (h *Harness) serveCPU(w http.ResponseWriter, r *http.Request) {
	secs := 2
	if q := r.URL.Query().Get("seconds"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 || v > 30 {
			http.Error(w, "want ?seconds=1..30", http.StatusBadRequest)
			return
		}
		secs = v
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another CPU profile is already running (only one at a time).
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	select {
	case <-time.After(time.Duration(secs) * time.Second):
	case <-r.Context().Done():
	}
	pprof.StopCPUProfile()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="cpu.pb.gz"`)
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
