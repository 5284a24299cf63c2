package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newInstrumented builds a two-route mux wrapped with the middleware,
// logging JSON lines into the returned buffer.
func newInstrumented(t *testing.T) (*Registry, http.Handler, *bytes.Buffer) {
	t.Helper()
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "missing" {
			http.Error(w, "no such thing", http.StatusNotFound)
			return
		}
		w.Write([]byte("thing " + r.PathValue("id")))
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	})
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	m := NewHTTPMetrics(reg, []string{"GET /v1/things/{id}", "POST /v1/fail"})
	return reg, m.Instrument(mux, logger), &logBuf
}

func TestMiddlewareRouteMetricsAndLog(t *testing.T) {
	t.Run("2xx is counted, not logged", func(t *testing.T) {
		reg, h, logBuf := newInstrumented(t)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/things/42", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if rec.Header().Get("X-Request-Id") == "" {
			t.Fatal("no X-Request-Id minted")
		}

		var b strings.Builder
		reg.WritePrometheus(&b)
		got := b.String()
		// The route label is the registration pattern, not the raw path.
		if !strings.Contains(got, `mcsched_http_requests_total{code="2xx",method="GET",route="/v1/things/{id}"} 1`) {
			t.Errorf("missing 2xx route counter:\n%s", got)
		}
		if !strings.Contains(got, `mcsched_http_request_duration_seconds_count{method="GET",route="/v1/things/{id}"} 1`) {
			t.Errorf("missing duration count:\n%s", got)
		}
		if !strings.Contains(got, "mcsched_http_requests_inflight 0") {
			t.Errorf("inflight gauge did not return to zero:\n%s", got)
		}
		if logBuf.Len() != 0 {
			t.Errorf("a successful request wrote a log line:\n%s", logBuf.String())
		}
	})

	t.Run("4xx and 5xx each log one line", func(t *testing.T) {
		for _, tc := range []struct {
			method, path, route string
			status              int
			level               string
		}{
			{"GET", "/v1/things/missing", "GET /v1/things/{id}", http.StatusNotFound, "WARN"},
			{"POST", "/v1/fail", "POST /v1/fail", http.StatusServiceUnavailable, "ERROR"},
		} {
			_, h, logBuf := newInstrumented(t)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			if rec.Code != tc.status {
				t.Fatalf("%s %s: status %d", tc.method, tc.path, rec.Code)
			}
			lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
			if len(lines) != 1 {
				t.Fatalf("%s %s: %d log lines, want 1:\n%s", tc.method, tc.path, len(lines), logBuf.String())
			}
			var line map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
				t.Fatalf("log line not JSON: %v\n%s", err, lines[0])
			}
			if line["request_id"] != rec.Header().Get("X-Request-Id") || line["route"] != tc.route ||
				line["status"] != float64(tc.status) || line["level"] != tc.level {
				t.Errorf("%s %s: log line %v", tc.method, tc.path, line)
			}
		}
	})
}

func TestMiddlewareRequestIDPropagation(t *testing.T) {
	_, h, _ := newInstrumented(t)

	// A sane client-supplied ID is propagated verbatim.
	req := httptest.NewRequest("GET", "/v1/things/1", nil)
	req.Header.Set("X-Request-Id", "client-abc.123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "client-abc.123" {
		t.Errorf("client ID not echoed: %q", got)
	}

	// A hostile one is replaced, never echoed.
	req = httptest.NewRequest("GET", "/v1/things/1", nil)
	req.Header.Set("X-Request-Id", "bad id\nwith newline")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got == "" || strings.Contains(got, "\n") || strings.Contains(got, "bad id") {
		t.Errorf("hostile ID echoed: %q", got)
	}
}

func TestMiddlewareStatusClassesAndOther(t *testing.T) {
	reg, h, _ := newInstrumented(t)

	// 5xx from a registered route.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/fail", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
	// Unregistered path lands in route="other" with a 4xx.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
	// So does a method mismatch on a registered path: the mux answers 405
	// without matching a pattern.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/things/42", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	got := b.String()
	if !strings.Contains(got, `mcsched_http_requests_total{code="5xx",method="POST",route="/v1/fail"} 1`) {
		t.Errorf("missing 5xx counter:\n%s", got)
	}
	if !strings.Contains(got, `mcsched_http_requests_total{code="4xx",route="other"} 2`) {
		t.Errorf("missing other-route 4xx counter (404 + 405):\n%s", got)
	}
	if strings.Contains(got, `code="4xx",method="GET",route="/v1/things/{id}"} 1`) {
		t.Errorf("405 counted under the registered route:\n%s", got)
	}
}

// TestRequestIDFormat pins minted IDs to the "%s-%06d" format, including
// past the six-digit padding and at the top of the counter's range.
func TestRequestIDFormat(t *testing.T) {
	const prefix = "3f9c6a1b2d4e5f60"
	for _, n := range []uint64{1, 42, 999_999, 1_000_000, 1 << 63} {
		if got, want := mintRequestID(prefix, n), fmt.Sprintf("%s-%06d", prefix, n); got != want {
			t.Errorf("mintRequestID(%d) = %q, want %q", n, got, want)
		}
	}
	// Through the middleware: the first minted ID is the prefix's 000001.
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	rec := httptest.NewRecorder()
	m.Instrument(http.NewServeMux(), nil).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if got, want := rec.Header().Get("X-Request-Id"), m.idPrefix+"-000001"; got != want {
		t.Errorf("first minted ID %q, want %q", got, want)
	}
}

// nopWriter is a ResponseWriter that keeps nothing, so an allocation count
// through it is the middleware's and the mux's alone.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestMiddlewareAllocsPerSuccess pins what a 2xx request costs in
// allocations: the request copy, its context value and the boxed ID, the
// minted ID and its header value, the status writer, the mux's path-value
// slice and the handler's body. A log line or a second route lookup on the
// success path shows up here first.
func TestMiddlewareAllocsPerSuccess(t *testing.T) {
	// Go 1.24 makes exactly this many; logging every request and resolving
	// the route twice made it 10.
	const maxAllocs = 8
	_, h, logBuf := newInstrumented(t)
	req := httptest.NewRequest("GET", "/v1/things/42", nil)
	w := &nopWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	if logBuf.Len() != 0 {
		t.Fatalf("successful requests logged:\n%s", logBuf.String())
	}
	if allocs > maxAllocs {
		t.Errorf("%v allocs per 2xx request, want at most %d", allocs, maxAllocs)
	}
}

func TestRequestIDHelpers(t *testing.T) {
	ctx := ContextWithRequestID(t.Context(), "rid-1")
	if got := RequestID(ctx); got != "rid-1" {
		t.Errorf("RequestID = %q", got)
	}
	if got := RequestID(t.Context()); got != "" {
		t.Errorf("RequestID on bare context = %q", got)
	}
}
