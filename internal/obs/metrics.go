package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increases the counter; negative deltas are ignored (a counter
// never goes down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// AddDuration accumulates a duration in nanoseconds — the storage form
// of duration counters (rendered as seconds; see DurationCounterVec).
func (c *Counter) AddDuration(d time.Duration) {
	if d > 0 {
		c.v.Add(int64(d))
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// kind is the Prometheus metric type of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// child is one labeled series of a family.
type child struct {
	labelVals []string
	c         *Counter
	h         *Histogram
}

// family is one named metric with its labeled children.
type family struct {
	name      string
	help      string
	kind      kind
	labelKeys []string
	// scale multiplies counter values at render time; duration counters
	// store nanoseconds and render seconds (scale 1e-9).
	scale float64

	mu       sync.Mutex
	children map[string]*child
	order    []string // creation order; sorted at render

	// fn, when non-nil, produces values at scrape time instead of
	// reading stored children: key is the label value ("" when the family
	// is unlabeled). Scrape-time evaluation is what lets queue depths and
	// breaker states reflect the instant of the scrape with zero
	// bookkeeping on the state-changing paths.
	fn func() map[string]float64
}

// Registry holds a process's metric families and renders them in
// Prometheus text exposition format (version 0.0.4).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register creates (or fails on a conflicting re-registration of) a
// family. Metric names are programmer-chosen constants, so a collision
// is a bug worth failing loudly on.
func (r *Registry) register(name, help string, k kind, labelKeys []string, scale float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name:      name,
		help:      help,
		kind:      k,
		labelKeys: labelKeys,
		scale:     scale,
		children:  map[string]*child{},
	}
	r.fams[name] = f
	return f
}

// childKey joins label values into the family's map key. The separator
// cannot appear in rendered label values (it is escaped away), so two
// distinct value tuples never collide.
func childKey(vals []string) string { return strings.Join(vals, "\xff") }

// get returns (creating if needed) the family's child for the label
// values.
func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelKeys), len(vals)))
	}
	key := childKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{labelVals: append([]string(nil), vals...)}
		switch f.kind {
		case kindCounter:
			ch.c = &Counter{}
		case kindHistogram:
			ch.h = &Histogram{}
		}
		f.children[key] = ch
		f.order = append(f.order, key)
	}
	return ch
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, 1).get(nil).c
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, 1)
	f.fn = func() map[string]float64 { return map[string]float64{"": fn()} }
}

// GaugeVecFunc registers a labeled gauge family whose full value set is
// computed at scrape time: fn returns label value → gauge value. Label
// values must come from a bounded set (peers, stages, priorities in the
// queue) — see the package cardinality rules.
func (r *Registry) GaugeVecFunc(name, help, labelKey string, fn func() map[string]float64) {
	f := r.register(name, help, kindGauge, []string{labelKey}, 1)
	f.fn = fn
}

// CounterFunc registers a counter whose value is read at scrape time —
// for exporting an existing monotonic counter owned by another layer
// without migrating its storage.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil, 1)
	f.fn = func() map[string]float64 { return map[string]float64{"": fn()} }
}

// CounterVecFunc registers a labeled counter family whose full value set
// is read at scrape time: fn returns label value → counter value. The
// same bounded-label rules as GaugeVecFunc apply.
func (r *Registry) CounterVecFunc(name, help, labelKey string, fn func() map[string]float64) {
	f := r.register(name, help, kindCounter, []string{labelKey}, 1)
	f.fn = fn
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first
// use. Callers on hot paths should call With once and keep the *Counter.
func (v *CounterVec) With(labelVals ...string) *Counter { return v.f.get(labelVals).c }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelKeys, 1)}
}

// CodeCounters are one route's children of a request counter family
// labeled (route, code). Each status code's child is created on first
// use, as With creates it, so a code never returned has no series; after
// that, counting a response takes no lock and allocates nothing.
type CodeCounters struct {
	vec   *CounterVec
	route string
	// codes caches the child of each code in [100, 600), the range
	// net/http writes in practice; other codes go through With.
	codes [500]atomic.Pointer[Counter]
}

// Codes returns route's status-code counters of a (route, code) family.
// Resolve it once per route and keep it.
func (v *CounterVec) Codes(route string) *CodeCounters {
	return &CodeCounters{vec: v, route: route}
}

// Inc counts one response with status code.
func (c *CodeCounters) Inc(code int) {
	i := code - 100
	if i < 0 || i >= len(c.codes) {
		c.vec.With(c.route, strconv.Itoa(code)).Inc()
		return
	}
	ctr := c.codes[i].Load()
	if ctr == nil {
		// With returns the same child for the same labels, so racing
		// first uses store the same pointer.
		ctr = c.vec.With(c.route, strconv.Itoa(code))
		c.codes[i].Store(ctr)
	}
	ctr.Inc()
}

// DurationCounterVec registers a labeled counter family that accumulates
// nanoseconds (via AddDuration) and renders seconds — the Prometheus
// convention for time-sum series (name it *_seconds_total).
func (r *Registry) DurationCounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelKeys, 1e-9)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values, creating it on first
// use. Callers on hot paths should call With once and keep the pointer.
func (v *HistogramVec) With(labelVals ...string) *Histogram { return v.f.get(labelVals).h }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labelKeys, 1)}
}

// WriteProm renders every family in Prometheus text exposition format,
// families and series in sorted order so two scrapes of identical state
// are byte-identical (tests and diffs rely on this).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the header are connection failures; nothing to do.
		_ = r.WriteProm(w)
	})
}

func (f *family) write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)

	if f.fn != nil {
		vals := f.fn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var lv []string
			if len(f.labelKeys) > 0 {
				lv = []string{k}
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, formatLabels(f.labelKeys, lv), formatValue(vals[k]))
		}
		_, err := io.WriteString(w, b.String())
		return err
	}

	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()

	for _, ch := range children {
		labels := formatLabels(f.labelKeys, ch.labelVals)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatValue(float64(ch.c.Load())*f.scale))
		case kindHistogram:
			les, cum := ch.h.promBuckets()
			for i, le := range les {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					formatLabels(append(f.labelKeys, "le"), append(ch.labelVals, formatValue(le.Seconds()))), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
				formatLabels(append(f.labelKeys, "le"), append(ch.labelVals, "+Inf")), ch.h.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labels, formatValue(ch.h.Sum().Seconds()))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labels, ch.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatLabels renders {k1="v1",k2="v2"}, or "" for an unlabeled series.
func formatLabels(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline. The vec separator byte is dropped outright
// so it can never round-trip into a rendered value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\xff", "")
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// formatValue renders a float compactly: integers without a decimal
// point, everything else with minimal digits.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
