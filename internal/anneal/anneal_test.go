package anneal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// quadratic is a 1-D test problem: minimize (x - target)^2 with proposals
// that perturb x by a magnitude-scaled step.
type quadratic struct {
	x, prev, target float64
	step            float64
}

func (q *quadratic) cost(x float64) float64 { return (x - q.target) * (x - q.target) }

func (q *quadratic) Propose(rng *rand.Rand, magnitude float64) float64 {
	q.prev = q.x
	q.x += (rng.Float64()*2 - 1) * q.step * magnitude
	return q.cost(q.x)
}

func (q *quadratic) Accept() {}

func (q *quadratic) Reject() { q.x = q.prev }

func TestRunConvergesOnQuadratic(t *testing.T) {
	q := &quadratic{x: 100, target: 3, step: 10}
	stats, err := Run(q, q.cost(q.x), Config{Steps: 20000, Cooling: 0.999, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BestCost > 1 {
		t.Errorf("BestCost = %g, want < 1 (converged near target)", stats.BestCost)
	}
	if stats.BestCost > stats.InitCost {
		t.Error("best cost exceeds initial cost")
	}
	if math.Abs(q.x-3) > 5 {
		t.Errorf("final x = %g, want near 3", q.x)
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() (float64, Stats) {
		q := &quadratic{x: 50, target: 0, step: 5}
		stats, err := Run(q, q.cost(q.x), Config{Steps: 500, Rand: rand.New(rand.NewSource(42))})
		if err != nil {
			t.Fatal(err)
		}
		return q.x, stats
	}
	x1, s1 := run()
	x2, s2 := run()
	if x1 != x2 || s1 != s2 {
		t.Errorf("same seed produced different runs: x %g vs %g, stats %+v vs %+v", x1, x2, s1, s2)
	}
}

func TestRunStatsAccounting(t *testing.T) {
	q := &quadratic{x: 10, target: 0, step: 1}
	stats, err := Run(q, q.cost(q.x), Config{Steps: 200, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 200 {
		t.Errorf("Steps = %d, want 200", stats.Steps)
	}
	if stats.Accepted < 1 || stats.Accepted > stats.Steps {
		t.Errorf("Accepted = %d out of %d, implausible", stats.Accepted, stats.Steps)
	}
	if stats.MeanCost <= 0 {
		t.Errorf("MeanCost = %g, want positive", stats.MeanCost)
	}
	if stats.BestCost > stats.MeanCost {
		t.Errorf("BestCost %g should be <= MeanCost %g", stats.BestCost, stats.MeanCost)
	}
}

func TestRunConfigValidation(t *testing.T) {
	q := &quadratic{x: 1, target: 0, step: 1}
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(q, 1, Config{Steps: -1, Rand: rng}); err == nil {
		t.Error("negative steps should error")
	}
	if _, err := Run(q, 1, Config{Cooling: 1.5, Rand: rng}); err == nil {
		t.Error("cooling >= 1 should error")
	}
	if _, err := Run(q, 1, Config{Cooling: -0.5, Rand: rng}); err == nil {
		t.Error("negative cooling should error")
	}
	if _, err := Run(q, 1, Config{Steps: 10}); err == nil {
		t.Error("a nil Rand should error")
	}
}

func TestRunStopsAtMinTemp(t *testing.T) {
	q := &quadratic{x: 10, target: 0, step: 1}
	stats, err := Run(q, q.cost(q.x), Config{
		Steps: 1000000, Cooling: 0.5, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The temperature starts at 10 (10% of the initial cost 100) and halves
	// every step; 10·0.5^k > minTemp (1e-6) holds for k = 0..23 only, so
	// the run stops after 24 of its million steps.
	if stats.Steps != 24 {
		t.Errorf("Steps = %d, want 24 (stopped at minTemp)", stats.Steps)
	}
}

func TestMetropolisAlwaysAcceptsDownhill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if !metropolis(10, 5, 0.0001, rng) {
			t.Fatal("downhill move rejected")
		}
		if !metropolis(10, 10, 0.0001, rng) {
			t.Fatal("equal-cost move rejected")
		}
	}
}

func TestMetropolisUphillDependsOnTemp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hot, cold := 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if metropolis(10, 12, 100, rng) {
			hot++
		}
		if metropolis(10, 12, 0.01, rng) {
			cold++
		}
	}
	if hot < trials*8/10 {
		t.Errorf("hot acceptance %d/%d, want near-certain", hot, trials)
	}
	if cold > trials/100 {
		t.Errorf("cold acceptance %d/%d, want near-zero", cold, trials)
	}
	if metropolis(10, 12, 0, rng) {
		t.Error("uphill at zero temperature must be rejected")
	}
}

func TestSharedRandStream(t *testing.T) {
	// Two runs sharing one *rand.Rand must consume from the same stream:
	// the second run differs from a fresh run with the same seed.
	rng := rand.New(rand.NewSource(9))
	q1 := &quadratic{x: 50, target: 0, step: 5}
	if _, err := Run(q1, q1.cost(q1.x), Config{Steps: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	q2 := &quadratic{x: 50, target: 0, step: 5}
	if _, err := Run(q2, q2.cost(q2.x), Config{Steps: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	q3 := &quadratic{x: 50, target: 0, step: 5}
	if _, err := Run(q3, q3.cost(q3.x), Config{Steps: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
	if q2.x == q3.x {
		t.Error("second run on a shared stream should differ from a fresh-seed run")
	}
}

func TestInitialTempCalibration(t *testing.T) {
	// The temperature calibrated from the initial cost must anneal.
	q := &quadratic{x: 1000, target: 0, step: 100}
	stats, err := Run(q, q.cost(q.x), Config{Steps: 5000, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BestCost >= stats.InitCost {
		t.Errorf("no improvement: best %g vs init %g", stats.BestCost, stats.InitCost)
	}
}

// stopAfter is a quadratic whose n-th proposal closes stop.
type stopAfter struct {
	quadratic
	n    int
	stop chan struct{}
}

func (s *stopAfter) Propose(rng *rand.Rand, magnitude float64) float64 {
	if s.n--; s.n == 0 {
		close(s.stop)
	}
	return s.quadratic.Propose(rng, magnitude)
}

func TestRunStopChannel(t *testing.T) {
	// A stop after N steps halts the run with ErrStopped and stats for the
	// steps that completed.
	stop := make(chan struct{})
	q := &stopAfter{quadratic: quadratic{x: 1000, target: 0, step: 10}, n: 25, stop: stop}
	stats, err := Run(q, q.cost(q.x), Config{
		Steps: 1 << 20,
		Rand:  rand.New(rand.NewSource(3)),
		Stop:  stop,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if stats.Steps != 25 {
		t.Errorf("Steps = %d, want 25 (stop checked before every proposal)", stats.Steps)
	}

	// A pre-closed stop channel runs zero steps.
	closed := make(chan struct{})
	close(closed)
	stats, err = Run(q, q.cost(q.x), Config{Steps: 100, Rand: rand.New(rand.NewSource(4)), Stop: closed})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-closed stop: err = %v, want ErrStopped", err)
	}
	if stats.Steps != 0 {
		t.Errorf("pre-closed stop ran %d steps, want 0", stats.Steps)
	}

	// A nil stop channel never fires.
	if _, err := Run(q, q.cost(q.x), Config{Steps: 50, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatalf("nil stop: %v", err)
	}
}
