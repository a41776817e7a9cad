package loadgen

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mps/internal/obs"
)

// renderRegistry produces real /metrics output so the parser is tested
// against the renderer it will scrape, not a hand-typed imitation.
func renderRegistry(t *testing.T, fill func(reg *obs.Registry)) *Scrape {
	t.Helper()
	reg := obs.NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("parsing rendered metrics: %v\n%s", err, buf.String())
	}
	return s
}

func TestParsePromRoundTrip(t *testing.T) {
	s := renderRegistry(t, func(reg *obs.Registry) {
		reg.Counter("mps_test_total", "plain").Add(7)
		v := reg.CounterVec("mps_test_labeled_total", "labeled", "route", "code")
		v.With("instantiate", "200").Add(41)
		v.With("structures", "503").Inc()
		reg.GaugeFunc("mps_test_gauge", "g", func() float64 { return 3 })
		esc := reg.CounterVec("mps_test_esc_total", "escapes", "peer")
		esc.With(`he said "hi"\there`).Inc()
	})
	if got := s.Sum("mps_test_total", nil); got != 7 {
		t.Errorf("plain counter = %v, want 7", got)
	}
	if got := s.Sum("mps_test_labeled_total", nil); got != 42 {
		t.Errorf("labeled sum = %v, want 42", got)
	}
	if got := s.Sum("mps_test_labeled_total", map[string]string{"route": "instantiate"}); got != 41 {
		t.Errorf("selected sum = %v, want 41", got)
	}
	if got := s.Sum("mps_test_labeled_total", map[string]string{"route": "instantiate", "code": "503"}); got != 0 {
		t.Errorf("non-matching selector = %v, want 0", got)
	}
	if got := s.Sum("mps_test_gauge", nil); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
	if got := s.Sum("mps_test_esc_total", map[string]string{"peer": `he said "hi"\there`}); got != 1 {
		t.Errorf("escaped label did not round-trip: %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"mps_x_total",                   // no value
		"mps_x_total notanumber",        // bad value
		`mps_x_total{route="oops 1`,     // unterminated labels
		`mps_x_total{route} 1`,          // malformed label
		`mps_x_total{route="open 1} 2.`, // unterminated value quote then bad float
	} {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm(%q) accepted garbage", in)
		}
	}
}

func TestHistogramQuantileFromScrape(t *testing.T) {
	// 1..1000ms through a real obs histogram, rendered and re-derived: the
	// scrape-side quantile must land within one doubling of the truth
	// (render downsamples to doubling edges).
	s := renderRegistry(t, func(reg *obs.Registry) {
		h := reg.HistogramVec("mps_test_latency_seconds", "lat", "route").With("instantiate")
		for i := 1; i <= 1000; i++ {
			h.Observe(time.Duration(i) * time.Millisecond)
		}
	})
	sel := map[string]string{"route": "instantiate"}
	if n := s.Sum("mps_test_latency_seconds_count", sel); n != 1000 {
		t.Fatalf("count = %v, want 1000", n)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got, ok := s.HistogramQuantile("mps_test_latency_seconds", sel, tc.q)
		if !ok {
			t.Fatalf("q%.2f: no samples found", tc.q)
		}
		if got < tc.want || got > 2*tc.want {
			t.Errorf("q%.2f = %v, want in [%v, %v]", tc.q, got, tc.want, 2*tc.want)
		}
	}
	if _, ok := s.HistogramQuantile("mps_test_latency_seconds", map[string]string{"route": "absent"}, 0.5); ok {
		t.Error("quantile over absent series must report no samples")
	}
	// Sub: a second scrape of the same registry diffs to zero everywhere.
	diff := s.Sub(s)
	if n := diff.Sum("mps_test_latency_seconds_count", sel); n != 0 {
		t.Errorf("self-diff count = %v, want 0", n)
	}
}
