// Package api is the wire contract of the switchd /v1 serving API: the
// request/response payloads, the error envelope with its stable
// machine-readable codes, and the health/failure-plane types. It is
// shared by the server handlers (internal/switchd) and the typed client
// (internal/switchd/client) so the two can never drift, and it is the
// only vocabulary callers should program against — match on Error.Code,
// never on message text.
package api

import (
	"errors"
	"fmt"
	"net/http"
)

// Error codes carried in the {"error":{"code":...}} envelope. They are
// stable API: clients branch on these, messages are for humans.
const (
	// CodeBlocked: the request was admissible but the fabric could not
	// route it — the event the paper's theorems make impossible at or
	// above the sufficient middle-stage bound. HTTP 409.
	CodeBlocked = "blocked"
	// CodeAdmissionFull: the admission cap (MaxSessions, possibly
	// derated in degraded mode) is reached; the request was never
	// offered to a fabric. HTTP 429.
	CodeAdmissionFull = "admission_full"
	// CodeDraining: the controller is shutting down and no longer
	// accepts work. HTTP 503.
	CodeDraining = "draining"
	// CodeBadRequest: malformed payload, unparseable connection codec,
	// inadmissible request, or an out-of-range parameter. HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the referenced session (or resource) is not live.
	// HTTP 404.
	CodeNotFound = "not_found"
	// CodeFabricFailed: the target fabric plane has no working middle
	// modules left; the request cannot be served until a repair.
	// HTTP 503.
	CodeFabricFailed = "fabric_failed"
	// CodeStorageFailed: the durable log could not record the mutation
	// (write or fsync failure). The log is fail-stop — every later
	// mutating request returns this code until the process is restarted
	// and recovers; reads keep serving. HTTP 503.
	CodeStorageFailed = "storage_failed"
	// CodeNotPrimary: the node is a warm standby for its shard and does
	// not serve this endpoint until promoted. Clients should fail over
	// to (or retry against) the shard's primary. HTTP 503.
	CodeNotPrimary = "not_primary"
	// CodeWavelengthConflict: blocked, and specifically because the AWG
	// backend's grating law forces a wavelength the route cannot carry —
	// both hops of a session are pinned to λ = (dest−src) mod k, and
	// that class is exhausted. A retry cannot succeed until a session in
	// the same wavelength class releases. HTTP 409.
	CodeWavelengthConflict = "wavelength_conflict"
	// CodeSplitIncapable: blocked, and specifically because the mesh
	// backend's sparse-splitting structure cannot realize the requested
	// fanout even on an idle network — the light-hierarchy would need a
	// branch at a multicast-incapable node or beyond the splitter fanout
	// X. Retrying the same request can never succeed. HTTP 409.
	CodeSplitIncapable = "split_incapable"
)

// Error is the one error shape every /v1 endpoint returns, wrapped in
// an Envelope. It implements the error interface so the typed client
// can hand it straight back to callers.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// HTTPStatus is the status line the error traveled under. It is
	// derived (StatusFor), not serialized; the code is the contract.
	HTTPStatus int `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Envelope is the JSON body of every non-2xx /v1 response.
type Envelope struct {
	Error *Error `json:"error"`
}

// IsBlockedCode reports whether code is the fabric's blocked class:
// the generic code or a backend-specific sub-code (wavelength_conflict
// on awg, split_incapable on mesh). All of them travel as HTTP 409.
func IsBlockedCode(code string) bool {
	switch code {
	case CodeBlocked, CodeWavelengthConflict, CodeSplitIncapable:
		return true
	}
	return false
}

// StatusFor maps an error code to its HTTP status line.
func StatusFor(code string) int {
	if IsBlockedCode(code) {
		return http.StatusConflict
	}
	switch code {
	case CodeAdmissionFull:
		return http.StatusTooManyRequests
	case CodeDraining, CodeFabricFailed, CodeStorageFailed, CodeNotPrimary:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// CodeOf extracts the machine-readable code from err, or "" when err
// does not carry one.
func CodeOf(err error) string {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsCode reports whether err carries the given API error code.
func IsCode(err error, code string) bool { return CodeOf(err) == code }
