package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWithRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	var seenID string
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}), logger)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/connect", nil))

	if seenID == "" || !strings.HasPrefix(seenID, "req-") {
		t.Fatalf("handler saw request id %q, want req-*", seenID)
	}
	if got := rec.Header().Get("X-Request-Id"); got != seenID {
		t.Fatalf("X-Request-Id = %q, want %q (same id as context)", got, seenID)
	}

	var line struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, logBuf.Bytes())
	}
	if line.Msg != "request" || line.RequestID != seenID || line.Method != "GET" ||
		line.Path != "/v1/connect" || line.Status != http.StatusTeapot {
		t.Fatalf("log line = %+v, want request/%s/GET//v1/connect/418", line, seenID)
	}
}

func TestWithRequestLogDistinctIDs(t *testing.T) {
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)))
	ids := map[string]bool{}
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		ids[rec.Header().Get("X-Request-Id")] = true
	}
	if len(ids) != 5 {
		t.Fatalf("got %d distinct ids over 5 requests, want 5: %v", len(ids), ids)
	}
}

func TestRequestIDOutsideRequest(t *testing.T) {
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on bare context = %q, want empty", got)
	}
	ctx := WithRequestID(context.Background(), "req-custom")
	if got := RequestID(ctx); got != "req-custom" {
		t.Fatalf("RequestID = %q, want req-custom", got)
	}
}

// TestStatusDefault: a handler that never calls WriteHeader logs 200.
func TestStatusDefault(t *testing.T) {
	var logBuf bytes.Buffer
	h := WithRequestLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}), slog.New(slog.NewJSONHandler(&logBuf, nil)))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	var line struct {
		Status int `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Status != 200 {
		t.Fatalf("implicit status logged as %d, want 200", line.Status)
	}
}

func TestFormatRequestIDMatchesSprintf(t *testing.T) {
	ns := []uint64{0, 1, 9, 10, 99, 100, 9999999, 10000000, 12345678, 99999999, 100000000, 1<<64 - 1}
	for p := uint64(1); p < 1e19; p *= 10 {
		ns = append(ns, p-1, p, p+1)
	}
	for _, n := range ns {
		if got, want := formatRequestID(n), fmt.Sprintf("req-%08d", n); got != want {
			t.Fatalf("formatRequestID(%d) = %q, want %q", n, got, want)
		}
	}
}
