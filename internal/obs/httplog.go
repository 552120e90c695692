package obs

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Request-id plumbing. Every request through WithRequestLog gets a
// process-unique id, carried on the request context and echoed in the
// X-Request-Id response header, so a client-reported failure can be
// joined against the server's structured log — and against the blocking
// forensics a 409 leaves behind.

type ctxKey int

const requestIDKey ctxKey = iota

var nextRequestID atomic.Uint64

// RequestID returns the request id WithRequestLog assigned to this
// context, or "" outside an instrumented request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// WithRequestID returns a context carrying the given request id —
// exposed for tests and for callers that generate ids elsewhere.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// formatRequestID renders n as fmt's "req-%08d" does.
func formatRequestID(n uint64) string {
	var b [32]byte
	id := append(b[:0], "req-"...)
	for p := uint64(10_000_000); p > n && p > 1; p /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendUint(id, n, 10))
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// WithRequestLog wraps h: each request is assigned a request id
// (propagated via context, echoed as X-Request-Id) and logged on
// completion with method, path, status, and elapsed time. A nil logger
// uses slog.Default().
func WithRequestLog(h http.Handler, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := formatRequestID(nextRequestID.Add(1))
		ctx := WithRequestID(r.Context(), id)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(ctx))
		logger.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("elapsed", time.Since(start)),
		)
	})
}
