package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 ms, one sample each: quantiles are known exactly, and the
	// bucketed answer must land within one bucket width (2^(1/8) ≈ +9%).
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Max() != 1000*time.Millisecond {
		t.Fatalf("max = %v, want 1s", h.Max())
	}
	wantMean := time.Duration(500500) * time.Microsecond
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if h.Sum() != 500500*time.Millisecond {
		t.Fatalf("sum = %v, want 500.5s", h.Sum())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.90, 900 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.095 {
			t.Errorf("q%.3f = %v, want in [%v, %v+9%%]", tc.q, got, tc.want, tc.want)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	// Empty histogram: every reader must yield zero, not panic or NaN.
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram must read zero")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped, not a panic
	h.Observe(48 * time.Hour)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	// Beyond-range samples land in the last bucket; the quantile clamps to
	// the exact max rather than the bucket edge.
	if got := h.Quantile(1); got != 48*time.Hour {
		t.Fatalf("q1 = %v, want 48h", got)
	}
	if got := h.Quantile(2); got != 48*time.Hour { // out-of-range q clamps
		t.Fatalf("q2 = %v, want 48h", got)
	}
	// Bucket upper edges are monotonically non-decreasing in the index.
	prev := time.Duration(0)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if u < prev {
			t.Fatalf("bucketUpper(%d) = %v < bucketUpper(%d) = %v", i, u, i-1, prev)
		}
		prev = u
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 500; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != 1000 || a.Max() != time.Second {
		t.Fatalf("merged count=%d max=%v", a.Count(), a.Max())
	}
	got := a.Quantile(0.5)
	want := 500 * time.Millisecond
	if got < want || float64(got) > float64(want)*1.095 {
		t.Fatalf("merged q50 = %v, want ≈%v", got, want)
	}
}

func TestHistogramMergeMismatchedMax(t *testing.T) {
	// Merging a histogram whose max is smaller must keep the larger max
	// (never sum them), in both directions; merging empty is a no-op.
	var big, small, empty Histogram
	big.Observe(10 * time.Second)
	small.Observe(time.Millisecond)

	big.Merge(&small)
	if big.Max() != 10*time.Second || big.Count() != 2 {
		t.Fatalf("big∪small: max=%v count=%d, want 10s, 2", big.Max(), big.Count())
	}
	small.Merge(&big)
	if small.Max() != 10*time.Second || small.Count() != 3 {
		t.Fatalf("small∪big: max=%v count=%d, want 10s, 3", small.Max(), small.Count())
	}
	before := big.Max()
	big.Merge(&empty)
	if big.Max() != before || big.Count() != 2 {
		t.Fatalf("merge of empty changed state: max=%v count=%d", big.Max(), big.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Hammer one histogram from many goroutines; run under -race this
	// validates the atomic design, and totals must be exact afterwards.
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	wantMax := time.Duration(workers*per-1) * time.Microsecond
	if h.Max() != wantMax {
		t.Fatalf("max = %v, want %v", h.Max(), wantMax)
	}
}

func TestPromBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // below base → first bucket
	h.Observe(3 * time.Microsecond)  // between 2µs and 4µs edges
	h.Observe(time.Hour)             // above top bucket

	les, cum := h.promBuckets()
	if len(les) != numBuckets/bucketsPerDoubling {
		t.Fatalf("edges = %d, want %d", len(les), numBuckets/bucketsPerDoubling)
	}
	if les[0] != time.Microsecond {
		t.Fatalf("first edge = %v, want 1µs", les[0])
	}
	for i := 1; i < len(les); i++ {
		// Every rendered edge is the previous one doubled (within float
		// rounding of the power computation).
		ratio := float64(les[i]) / float64(les[i-1])
		if ratio < 1.999 || ratio > 2.001 {
			t.Fatalf("edge %d/%d ratio = %v, want 2", i, i-1, ratio)
		}
	}
	if cum[0] != 1 {
		t.Fatalf("cum ≤1µs = %d, want 1 (sub-base sample)", cum[0])
	}
	if cum[1] != 1 || cum[2] != 2 {
		t.Fatalf("cum ≤2µs = %d, ≤4µs = %d; want 1, 2", cum[1], cum[2])
	}
	// The hour-long sample is beyond the last rendered doubling edge, so
	// the final cumulative count excludes it — the +Inf bucket (rendered
	// from Count) picks it up.
	if last := cum[len(cum)-1]; last != 2 {
		t.Fatalf("top cum = %d, want 2 (outlier only in +Inf)", last)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	c.Inc()
	r.GaugeFunc("test_depth", "depth", func() float64 { return 5 })
	d := r.DurationCounterVec("test_busy_seconds_total", "busy time", "stage").With("cache")
	d.AddDuration(1500 * time.Millisecond)
	d.AddDuration(-time.Second) // ignored: counters are monotonic
	v := r.CounterVec("test_requests_total", "requests", "route", "code")
	v.With("instantiate", "200").Add(3)
	v.With(`we"ird\`+"\n\xff", "500").Inc()
	r.GaugeFunc("test_live", "live value", func() float64 { return 2.5 })
	r.GaugeVecFunc("test_breaker_state", "breaker", "peer", func() map[string]float64 {
		return map[string]float64{"b": 1, "a": 0}
	})
	h := r.HistogramVec("test_latency_seconds", "latency", "route").With("instantiate")
	h.Observe(3 * time.Microsecond)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total ops\n# TYPE test_ops_total counter\ntest_ops_total 6\n",
		"test_depth 5\n",
		`test_busy_seconds_total{stage="cache"} 1.5`,
		`test_requests_total{route="instantiate",code="200"} 3`,
		`test_requests_total{route="we\"ird\\\n",code="500"} 1`,
		"test_live 2.5\n",
		`test_breaker_state{peer="a"} 0`,
		`test_breaker_state{peer="b"} 1`,
		`test_latency_seconds_bucket{route="instantiate",le="1e-06"} 0`,
		`test_latency_seconds_bucket{route="instantiate",le="4e-06"} 1`,
		`test_latency_seconds_bucket{route="instantiate",le="+Inf"} 1`,
		`test_latency_seconds_sum{route="instantiate"} 3e-06`,
		`test_latency_seconds_count{route="instantiate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render in sorted name order, so two scrapes of the same
	// state are byte-identical.
	var b2 strings.Builder
	if err := r.WriteProm(&b2); err != nil {
		t.Fatalf("WriteProm again: %v", err)
	}
	if out != b2.String() {
		t.Fatalf("two scrapes of identical state differ")
	}
	if i, j := strings.Index(out, "test_breaker_state"), strings.Index(out, "test_depth"); i > j {
		t.Fatalf("families not sorted: breaker_state at %d after depth at %d", i, j)
	}
}

// TestCodeCounters counts by status code from several goroutines at once,
// first uses included, plus codes outside the cached range: every count
// lands on its (route, code) series, and no other series appears.
func TestCodeCounters(t *testing.T) {
	r := NewRegistry()
	codes := r.CounterVec("test_requests_total", "requests", "route", "code").Codes("r")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				codes.Inc(200)
				codes.Inc(404)
				codes.Inc(999)
			}
		}()
	}
	wg.Wait()
	codes.Inc(599)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	want := "# HELP test_requests_total requests\n# TYPE test_requests_total counter\n" +
		`test_requests_total{route="r",code="200"} 200` + "\n" +
		`test_requests_total{route="r",code="404"} 200` + "\n" +
		`test_requests_total{route="r",code="599"} 1` + "\n" +
		`test_requests_total{route="r",code="999"} 200` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration must panic")
		}
	}()
	r.GaugeFunc("dup_total", "second", func() float64 { return 0 })
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "h").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "handler_total 1") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestTrace(t *testing.T) {
	// A nil trace (untraced context) absorbs everything silently.
	var nilT *Trace
	nilT.StartSpan(StageCompile).End()
	if !nilT.ID().IsZero() || nilT.DroppedSpans() != 0 || nilT.CrossNode() {
		t.Fatalf("nil trace must read zero")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatalf("background context must carry no trace")
	}

	ctx, tr := WithTrace(context.Background())
	if TraceFrom(ctx) != tr {
		t.Fatalf("TraceFrom must return the trace WithTrace installed")
	}

	// Concurrent recording (the forward/fan-out case) must be safe and
	// must account for every span: recorded in a slot or counted dropped.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.StartSpan(StageFetch).End()
			}
		}()
	}
	wg.Wait()
	if got := tr.DroppedSpans(); got != 400-maxSpans {
		t.Fatalf("fetch spans dropped = %d, want %d of 400", got, 400-maxSpans)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Stages() {
		name := s.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("stage %d has bad/duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if NumStages.String() != "unknown" {
		t.Fatalf("out-of-range stage must stringify as unknown")
	}
}

func TestSlowQueryEntry(t *testing.T) {
	e := SlowQueryEntry{
		Method: "POST", Path: "/v1/instantiate", Route: "instantiate",
		Status: 200, Millis: 152.5, ServedBy: "n2",
		Stages: map[string]float64{"job_wait": 140.1},
	}
	line := e.Render()
	if strings.ContainsAny(line, "\n") {
		t.Fatalf("slow-query line must be one line: %q", line)
	}
	var back SlowQueryEntry
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Route != "instantiate" || back.Stages["job_wait"] != 140.1 || back.ServedBy != "n2" {
		t.Fatalf("round-trip = %+v", back)
	}
	// Optional fields drop out when empty.
	min := SlowQueryEntry{Method: "GET", Path: "/healthz", Route: "healthz", Status: 200, Millis: 1}
	if s := min.Render(); strings.Contains(s, "served_by") || strings.Contains(s, "stages") || strings.Contains(s, "key") {
		t.Fatalf("empty optional fields rendered: %s", s)
	}
}
