package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ctxKey keys obs values stored in request contexts.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request ID propagated by the HTTP middleware, or ""
// when the request did not pass through it.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ContextWithRequestID returns a context carrying the given request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// statusClasses are the pre-registered status-code classes every route
// counts requests under; no per-status series are created at request time.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeSeries holds one route's pre-registered instruments.
type routeSeries struct {
	dur *Histogram
	// codes[i] counts responses in class statusClasses[i].
	codes [len(statusClasses)]*Counter
}

func (rs *routeSeries) observe(status int, d time.Duration) {
	rs.dur.Observe(d)
	class := status/100 - 1
	if class < 0 || class >= len(statusClasses) {
		class = 4 // treat out-of-range codes as 5xx
	}
	rs.codes[class].Inc()
}

// HTTPMetrics instruments an http.ServeMux: per-route request duration
// histograms and status-class counters, an in-flight gauge, request-ID
// propagation and one structured log line per failed request. Every route
// series is registered up front from the mux's pattern list, so serving a
// request touches only pre-built instruments.
type HTTPMetrics struct {
	inflight *Gauge
	routes   map[string]*routeSeries
	// other absorbs requests that match no registered pattern (404s,
	// unknown methods) under route="other".
	other *routeSeries

	idPrefix string
	idSeq    atomic.Uint64
}

// NewHTTPMetrics registers HTTP metric families on r with one series per
// pattern. Patterns use the mux registration form "METHOD /path/{wild}".
func NewHTTPMetrics(r *Registry, patterns []string) *HTTPMetrics {
	m := &HTTPMetrics{
		inflight: r.NewGauge("mcsched_http_requests_inflight",
			"Requests currently being served."),
		routes: make(map[string]*routeSeries, len(patterns)),
	}
	for _, p := range patterns {
		m.routes[p] = newRouteSeries(r, p)
	}
	m.other = newRouteSeries(r, "other")

	var b [8]byte
	rand.Read(b[:])
	m.idPrefix = hex.EncodeToString(b[:])
	return m
}

func newRouteSeries(r *Registry, pattern string) *routeSeries {
	method, route := "", pattern
	if i := strings.IndexByte(pattern, ' '); i > 0 {
		method, route = pattern[:i], pattern[i+1:]
	}
	labels := []Label{L("route", route)}
	if method != "" {
		labels = append(labels, L("method", method))
	}
	rs := &routeSeries{
		dur: r.NewHistogram("mcsched_http_request_duration_seconds",
			"Request duration by route.", LatencyBuckets, labels...),
	}
	for i, class := range statusClasses {
		rs.codes[i] = r.NewCounter("mcsched_http_requests_total",
			"Requests served by route and status class.",
			append([]Label{L("code", class)}, labels...)...)
	}
	return rs
}

// Instrument wraps mux with metrics, request-ID propagation and a
// structured log line for every request answered with a status of 400 or
// above; successful requests show only in the route's counters and
// histogram. The route label is the registration pattern the mux matched
// (r.Pattern once it has served), never the raw (unbounded-cardinality)
// URL path.
func (m *HTTPMetrics) Instrument(mux *http.ServeMux, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := m.requestID(r)
		r = r.WithContext(ContextWithRequestID(r.Context(), id))
		w.Header().Set("X-Request-Id", id)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		m.inflight.Add(1)
		mux.ServeHTTP(sw, r)
		m.inflight.Add(-1)

		d := time.Since(start)
		pattern := r.Pattern
		rs := m.routes[pattern]
		if rs == nil {
			rs, pattern = m.other, "other"
		}
		rs.observe(sw.status, d)
		if log == nil || sw.status < http.StatusBadRequest {
			return
		}
		level := slog.LevelWarn
		if sw.status >= http.StatusInternalServerError {
			level = slog.LevelError
		}
		log.LogAttrs(r.Context(), level, "http request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", pattern),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", d),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// requestID returns the client-supplied X-Request-Id when it is sane, or
// mints a process-unique one.
func (m *HTTPMetrics) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return mintRequestID(m.idPrefix, m.idSeq.Add(1))
}

// mintRequestID renders fmt.Sprintf("%s-%06d", prefix, seq) into one stack
// buffer, so minting costs only the returned string.
func mintRequestID(prefix string, seq uint64) string {
	var buf [64]byte
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	b := append(append(buf[:0], prefix...), '-')
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// validRequestID accepts modest, header-safe IDs so hostile values are
// never echoed into logs or response headers.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status and byte count.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
