// Package obs is mcsched's observability core: allocation-conscious metric
// instruments (atomic counters, gauges, fixed-bucket latency histograms)
// behind a registry that renders Prometheus text exposition, plus HTTP
// middleware for per-route metrics, request IDs and a structured log line
// per failed request.
//
// The design rule is that the instrumented hot path never allocates and
// never formats strings: label sets are pre-registered (each series caches
// its rendered `{k="v",...}` string at registration time), counters and
// gauges are single atomic words, and histograms compare against
// pre-computed integer-nanosecond bounds. All rendering cost is paid at
// registration and scrape time, never per observation — which is how the
// admit path keeps its 0 allocs/op after instrumentation.
//
// Registration is setup-time programmer API: invalid names, duplicate
// series and type conflicts panic instead of returning errors.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair of a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one label-set instance of a family, with its label string
// rendered once at registration.
type series struct {
	labels string // `{k="v",...}` or "" for the unlabelled series

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// family is one metric name: help text, type, and its registered series.
type family struct {
	name string
	help string
	kind metricKind
	// series in registration order; sorted by label string at render time.
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is mutex-guarded; registered instruments
// are lock-free to update.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// NewCounter registers and returns a new counter series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.AttachCounter(c, name, help, labels...)
	return c
}

// AttachCounter registers an existing counter (typically embedded in a
// hot-path struct) under the given name and labels.
func (r *Registry) AttachCounter(c *Counter, name, help string, labels ...Label) {
	r.add(name, help, kindCounter, labels, &series{counter: c})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for totals that already live in other subsystems' atomics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, kindCounter, labels, &series{counterFunc: fn})
}

// NewGauge registers and returns a new integer gauge series.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, kindGauge, labels, &series{gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, labels, &series{gaugeFunc: fn})
}

// NewHistogram registers and returns a new histogram series with the given
// upper bucket bounds in seconds (see LatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.AttachHistogram(h, name, help, labels...)
	return h
}

// AttachHistogram registers an existing histogram under the given name.
func (r *Registry) AttachHistogram(h *Histogram, name, help string, labels ...Label) {
	r.add(name, help, kindHistogram, labels, &series{hist: h})
}

func (r *Registry) add(name, help string, kind metricKind, labels []Label, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label string, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf strings.Builder
	for _, name := range names {
		f := r.families[name]
		sort.SliceStable(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			writeSeries(&buf, f, s)
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, buf.String())
	return err
}

func writeSeries(buf *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(buf, "%s%s %d\n", f.name, s.labels, s.counter.Value())
	case s.counterFunc != nil:
		fmt.Fprintf(buf, "%s%s %d\n", f.name, s.labels, s.counterFunc())
	case s.gauge != nil:
		fmt.Fprintf(buf, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
	case s.gaugeFunc != nil:
		fmt.Fprintf(buf, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFunc()))
	case s.hist != nil:
		cum, count, sum := s.hist.snapshot()
		for i, b := range s.hist.bounds {
			fmt.Fprintf(buf, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", formatFloat(b)), cum[i])
		}
		fmt.Fprintf(buf, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), count)
		fmt.Fprintf(buf, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum))
		fmt.Fprintf(buf, "%s_count%s %d\n", f.name, s.labels, count)
	}
}

// Handler returns an http.Handler serving the registry's exposition —
// what mcschedd mounts at GET /metrics on the ops listener.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// renderLabels renders a label set to its exposition form once, at
// registration time. Labels are sorted by name for determinism.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel appends one extra label (the histogram "le") to a pre-rendered
// label string. Only called at scrape time.
func withLabel(labels, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips ("0.005", "2.5e-06", "+Inf").
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // "le" is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
