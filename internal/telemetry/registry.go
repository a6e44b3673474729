// Package telemetry is the repo's dependency-free observability
// substrate: a metrics registry (atomic counters, gauges, fixed-bucket
// histograms) rendered in the Prometheus text exposition format
// v0.0.4, plus a lightweight admission-span tracer (tracer.go).
//
// Design constraints, in order:
//
//  1. Near-free when disabled. A nil *Registry hands out nil
//     instrument handles, and every handle method no-ops on a nil
//     receiver — instrumented code never branches on "is telemetry
//     on" and a disabled build pays one predictable nil check.
//  2. Near-free when enabled. Counters and gauges are single atomic
//     words; histograms are an atomic word per bucket. Exposition
//     (WritePrometheus) only reads atomics and user callbacks, so a
//     scrape never blocks a hot path.
//  3. No dependencies. Only the standard library; subsystems
//     (controller, vswitch, platform, journal, api) may import
//     telemetry without dragging anything else in.
//
// Metric naming convention: innet_<subsystem>_<name>, with _total
// suffixed on counters and base units of seconds — see DESIGN.md
// "Telemetry".
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default latency buckets, in seconds: wide enough
// to cover a cache-hit admission (~µs) through a budget-bounded
// symbolic execution (seconds).
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// atomic per bucket; Sum is kept as float bits under CAS. A nil
// *Histogram no-ops.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// The total is bumped before the bucket so a concurrent scrape can
	// never render a cumulative bucket above the +Inf count.
	h.count.Add(1)
	// Buckets are few (≈13); linear scan beats binary search in
	// practice and keeps the code branch-predictable.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// series is one labeled instance inside a family.
type series struct {
	labels string // canonical rendered label set, "" or `a="b",c="d"`
	c      *Counter
	g      *Gauge
	fn     func() float64 // counterfunc / gaugefunc
	h      *Histogram
}

// family groups all series of one metric name under a single
// HELP/TYPE header.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	by   map[string]*series
}

// Registry holds metric families. A nil *Registry hands out nil
// handles, so instrumentation sites need no enabled/disabled branch.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// renderLabels canonicalizes k/v pairs (sorted by key, escaped).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("telemetry: label pairs must come in key,value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries finds or creates the series for name+labels, enforcing
// one type and help per family.
func (r *Registry) getSeries(name, help, typ string, labels []string) *series {
	f := r.fam[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, by: make(map[string]*series)}
		r.fam[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	ls := renderLabels(labels)
	s := f.by[ls]
	if s == nil {
		s = &series{labels: ls}
		f.by[ls] = s
	}
	return s
}

// Counter returns the counter for name with the given label pairs,
// registering it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "counter", labelPairs)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for subsystems that already maintain
// their own monotonic counters (vswitch dispatch, platform lifecycle
// counters, the journal). fn must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "counter", labelPairs)
	s.fn = fn
}

// Gauge returns the settable gauge for name+labels. Nil on a nil
// registry.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "gauge", labelPairs)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "gauge", labelPairs)
	s.fn = fn
}

// Histogram returns the histogram for name+labels, with the given
// bucket upper bounds (nil = DefBuckets). Nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "histogram", labelPairs)
	if s.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		sort.Float64s(h.bounds)
		h.counts = make([]atomic.Uint64, len(h.bounds))
		s.h = h
	}
	return s.h
}

// formatValue renders a sample value. Integral floats print without
// an exponent or trailing zeros so counter output is stable and
// diff-friendly.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// formatBound renders a bucket upper bound for the le label.
func formatBound(b float64) string {
	if math.IsInf(b, +1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format v0.0.4: families sorted by name, series sorted by
// label set, histogram buckets cumulative and terminated by +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fam))
	for name := range r.fam {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family/series structure under the lock; the sample
	// values are atomics (or callbacks) read lock-free below, so a
	// slow writer cannot hold the registry.
	type snap struct {
		f      *family
		series []*series
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.fam[name]
		keys := make([]string, 0, len(f.by))
		for k := range f.by {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.by[k]
		}
		snaps = append(snaps, snap{f, ss})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, sn := range snaps {
		f := sn.f
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range sn.series {
			switch {
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			default:
				var v float64
				switch {
				case s.fn != nil:
					v = s.fn()
				case s.c != nil:
					v = float64(s.c.Value())
				case s.g != nil:
					v = s.g.Value()
				}
				if s.labels == "" {
					fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(v))
				} else {
					fmt.Fprintf(&b, "%s{%s} %s\n", f.name, s.labels, formatValue(v))
				}
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets,
// +Inf, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	prefix := s.labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, prefix, formatBound(bound), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, count)
	sum := math.Float64frombits(h.sum.Load())
	if s.labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(sum))
		fmt.Fprintf(b, "%s_count %d\n", name, count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, s.labels, formatValue(sum))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, s.labels, count)
	}
}
