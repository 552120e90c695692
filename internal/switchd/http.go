package switchd

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// HTTP+JSON API. Connections use the repository's compact text codec
// ("<port>.<wave>><port>.<wave>,..." — see package wdm), so a session is
// one curl away:
//
//	POST /v1/connect      {"connection": "0.0>5.0,9.0", "fabric": -1}
//	POST /v1/branch       {"session": 7, "dests": ["12.0"]}
//	POST /v1/disconnect   {"session": 7}
//	GET  /v1/session?id=7
//	GET  /v1/status
//	GET  /v1/fabrics        (capability discovery: every registered fabric backend)
//	GET  /v1/health         (failure plane: ok|degraded|critical, derated cap)
//	POST /v1/admin/fail     {"fabric": 0, "middle": 2}  (fail + live-migrate)
//	POST /v1/admin/repair   {"fabric": 0, "middle": 2}
//	GET  /v1/metrics        (JSON snapshot)
//	GET  /metrics           (Prometheus text exposition of the same counters)
//	GET  /v1/slo            (sliding-window SLIs and burn-rate alerts)
//	GET  /v1/query          (metrics history: ?query=, ?start=, ?end=, ?step=; rate()/increase()/histogram_quantile())
//	GET  /v1/alerts         (alerting rules engine: per-rule pending/firing state)
//	POST /v1/loadgen        {"offered_rps": ..., "achieved_rps": ...} (loadgen self-report gauges)
//	GET  /v1/debug/tsdb     (full metrics-history dump: stats + every series)
//	GET  /v1/debug/blocking (forensics ring buffer: recent blocking incidents)
//	GET  /v1/debug/spans    (tail-sampled completed traces; ?blocked=1, ?trace=ID, ?limit=N)
//	GET  /v1/debug/trace    (?fabric=N; replayable serving history, needs Config.CaptureTrace)
//	GET  /debug/vars        (standard expvar, includes the published registry)
//
// Every serving request runs under a span (see internal/obs/span): an
// inbound W3C traceparent header is joined, otherwise a fresh trace id
// is generated, and either way the id is echoed in the traceparent
// response header. Handlers pass the request context down, so a client
// disconnect or deadline cancels the controller call before it takes a
// fabric lock.
//
// Every non-2xx response carries the api.Envelope error shape,
// {"error":{"code":"...","message":"..."}}; the codes are stable API
// (see package api) and the status line is derived from the code:
// blocked 409 (with backend-specific sub-codes wavelength_conflict and
// split_incapable, also 409), admission_full 429, draining 503,
// fabric_failed 503, storage_failed 503, not_found 404, bad_request 400.

// Handler returns the controller's HTTP API as an http.Handler,
// wrapped in the span tracer's middleware (a no-op when tracing is
// disabled).
func (ctl *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/connect", ctl.handleConnect)
	mux.HandleFunc("/v1/branch", ctl.handleBranch)
	mux.HandleFunc("/v1/disconnect", ctl.handleDisconnect)
	mux.HandleFunc("/v1/session", ctl.handleSession)
	mux.HandleFunc("/v1/status", ctl.handleStatus)
	mux.HandleFunc("/v1/fabrics", ctl.handleFabrics)
	mux.HandleFunc("/v1/health", ctl.handleHealth)
	mux.HandleFunc("/v1/admin/fail", ctl.handleAdminFail)
	mux.HandleFunc("/v1/admin/repair", ctl.handleAdminRepair)
	mux.HandleFunc("/v1/metrics", ctl.handleMetrics)
	mux.HandleFunc("/metrics", ctl.handlePromMetrics)
	mux.HandleFunc("/v1/slo", ctl.handleSLO)
	mux.HandleFunc("/v1/query", ctl.handleQuery)
	mux.HandleFunc("/v1/alerts", ctl.handleAlerts)
	mux.HandleFunc("/v1/loadgen", ctl.handleLoadgen)
	mux.HandleFunc("/v1/version", ctl.handleVersion)
	mux.HandleFunc("/v1/debug/blocking", ctl.handleDebugBlocking)
	mux.HandleFunc("/v1/debug/spans", ctl.handleDebugSpans)
	mux.HandleFunc("/v1/debug/trace", ctl.handleDebugTrace)
	mux.HandleFunc("/v1/debug/prof", ctl.handleDebugProf)
	mux.HandleFunc("/v1/debug/tsdb", ctl.handleDebugTSDB)
	mux.Handle("/debug/vars", expvar.Handler())
	return ctl.tracer.Middleware(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiErrorFor classifies a controller error into the wire error shape.
// Errors that already carry an *api.Error (the failure plane's
// validation errors) pass through; sentinels and fabric outcomes map to
// their stable codes; anything else is a bad request.
func apiErrorFor(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	code := api.CodeBadRequest
	switch {
	case multistage.IsBlocked(err):
		// Backend-specific block classes keep their own stable codes —
		// wavelength_conflict (AWG grating law) and split_incapable (mesh
		// sparse splitting) — so clients can tell a retryable occupancy
		// collision from a structurally impossible request. Both still map
		// to 409 like the generic class.
		switch multistage.BlockedCode(err) {
		case multistage.CodeWavelengthConflict:
			code = api.CodeWavelengthConflict
		case multistage.CodeSplitIncapable:
			code = api.CodeSplitIncapable
		default:
			code = api.CodeBlocked
		}
	case errors.Is(err, ErrOverCapacity):
		code = api.CodeAdmissionFull
	case errors.Is(err, ErrDraining):
		code = api.CodeDraining
	case errors.Is(err, ErrFabricFailed):
		code = api.CodeFabricFailed
	case errors.Is(err, ErrStorageFailed):
		code = api.CodeStorageFailed
	case errors.Is(err, ErrUnknownSession):
		code = api.CodeNotFound
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// writeError emits err as an api.Envelope under the status its code
// maps to.
func writeError(w http.ResponseWriter, err error) {
	ae := apiErrorFor(err)
	writeJSON(w, api.StatusFor(ae.Code), api.Envelope{Error: ae})
}

// writeErrorCode emits a handler-level error (bad query parameter,
// wrong method) under an explicit code and status.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Envelope{Error: &api.Error{Code: code, Message: msg}})
}

func (ctl *Controller) handleConnect(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeHot(w, r, parseConnectRequest)
	if !ok {
		return
	}
	conn, err := wdm.ParseConnection(req.Connection)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	pin := -1
	if req.Fabric != nil {
		pin = *req.Fabric
	}
	var pt phaseTimer
	defer pt.observe(ctl.metrics, span.FromContext(r.Context()).TraceID())
	id, plane, err := ctl.connect(r.Context(), &pt, conn, pin)
	if err != nil {
		if multistage.IsBlocked(err) {
			ctl.logger.LogAttrs(r.Context(), slog.LevelWarn, "blocked",
				slog.String("request_id", obs.RequestID(r.Context())),
				slog.String("trace_id", span.FromContext(r.Context()).TraceID()),
				slog.String("op", "connect"),
				slog.Int("fabric", plane),
				slog.String("connection", req.Connection),
				slog.String("error", err.Error()))
		}
		writeError(w, err)
		return
	}
	respondHot(w, &pt, api.ConnectResponse{Session: id, Fabric: plane}, appendConnectResponse)
}

func (ctl *Controller) handleBranch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeHot(w, r, parseBranchRequest)
	if !ok {
		return
	}
	if len(req.Dests) == 0 {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, "branch needs at least one destination slot")
		return
	}
	dests := make([]wdm.PortWave, 0, len(req.Dests))
	for _, ds := range req.Dests {
		d, err := wdm.ParseSlot(ds)
		if err != nil {
			writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		dests = append(dests, d)
	}
	var pt phaseTimer
	defer pt.observe(ctl.metrics, span.FromContext(r.Context()).TraceID())
	if err := ctl.addBranch(r.Context(), &pt, req.Session, dests...); err != nil {
		if multistage.IsBlocked(err) {
			ctl.logger.LogAttrs(r.Context(), slog.LevelWarn, "blocked",
				slog.String("request_id", obs.RequestID(r.Context())),
				slog.String("trace_id", span.FromContext(r.Context()).TraceID()),
				slog.String("op", "branch"),
				slog.Uint64("session", req.Session),
				slog.String("error", err.Error()))
		}
		writeError(w, err)
		return
	}
	info, _ := ctl.Session(req.Session)
	respondHot(w, &pt, info, appendSessionInfo)
}

func (ctl *Controller) handleDisconnect(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeHot(w, r, parseDisconnectRequest)
	if !ok {
		return
	}
	var pt phaseTimer
	defer pt.observe(ctl.metrics, span.FromContext(r.Context()).TraceID())
	if err := ctl.disconnect(r.Context(), &pt, req.Session); err != nil {
		writeError(w, err)
		return
	}
	respondHot(w, &pt, api.DisconnectResponse{Released: req.Session}, appendDisconnectResponse)
}

func (ctl *Controller) handleSession(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, api.CodeBadRequest, "want ?id=<session>")
		return
	}
	info, ok := ctl.Session(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %d", ErrUnknownSession, id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (ctl *Controller) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ctl.Status())
}

// handleFabrics serves capability discovery: every fabric backend this
// binary can serve (name, nonblocking bound, multicast mechanism,
// backend-specific error codes), with the one this instance runs
// flagged current. The listing derives from the backend registry, so a
// newly registered backend appears here without handler changes.
func (ctl *Controller) handleFabrics(w http.ResponseWriter, r *http.Request) {
	resp := api.FabricsResponse{Current: ctl.backendName}
	for _, d := range backend.All() {
		resp.Fabrics = append(resp.Fabrics, api.FabricInfo{
			Name:        d.Name,
			Description: d.Description,
			Bound:       d.Bound,
			Multicast:   d.Multicast,
			ErrorCodes:  append([]string(nil), d.ErrorCodes...),
			Current:     d.Name == ctl.backendName,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth serves the failure-plane snapshot. ok and degraded
// answer 200 (the instance still serves, possibly derated); critical —
// some plane has no working middles — answers 503 so a plain
// status-code health check ejects the instance.
func (ctl *Controller) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := ctl.Health()
	status := http.StatusOK
	if h.Status == api.HealthCritical {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (ctl *Controller) handleAdminFail(w http.ResponseWriter, r *http.Request) {
	var req api.FailRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, err := ctl.FailMiddle(r.Context(), req.Fabric, req.Middle)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (ctl *Controller) handleAdminRepair(w http.ResponseWriter, r *http.Request) {
	var req api.FailRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, err := ctl.RepairMiddle(r.Context(), req.Fabric, req.Middle)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (ctl *Controller) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ctl.metrics.Snapshot())
}

// handleDebugProf serves the profiling harness (see internal/obs/prof):
// ring snapshots of heap/mutex/block/goroutine profiles, live CPU
// capture, and ?debug=1 text renderings.
func (ctl *Controller) handleDebugProf(w http.ResponseWriter, r *http.Request) {
	ctl.prof.ServeHTTP(w, r)
}
