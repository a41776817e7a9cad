package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/gen"
	"mps/internal/obs"
	"mps/internal/portfolio"
	"mps/internal/stats"
	"mps/internal/store"
)

// BenchResult is one machine-readable micro-benchmark row: the op name
// plus the standard testing.Benchmark metrics. This is the schema CI
// archives (BENCH_results.json), seeding the performance trajectory the
// ROADMAP calls for — comparable run over run because names and units
// never change.
type BenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // iterations the harness settled on
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the BENCH_results.json document.
type BenchReport struct {
	Version    int           `json:"version"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	Created    time.Time     `json:"created"`
	Results    []BenchResult `json:"results"`
	// Backends holds the per-backend generation comparison when the run
	// included mpsbench -backends. Informational: CompareBench gates only
	// on Results, so baseline files without this section stay valid.
	Backends []BackendRow `json:"backends,omitempty"`
	// Pareto holds the weight-diverse vs seed-diverse portfolio study when
	// the run included mpsbench -pareto. Informational, like Backends.
	Pareto []ParetoRow `json:"pareto,omitempty"`
}

// RunMicro benchmarks the serving stack's critical operations — quick
// generation, instantiation through the compiled query index (mixed and
// covered-only workloads), best-of-K portfolio routing (the covered routed
// op is the 0 allocs/op gate), and both on-disk codecs — via
// testing.Benchmark, renders a table to w, and returns the rows for
// WriteBenchJSON. The quick-effort budgets keep a full run in the tens of
// seconds, small enough for CI, and every op is deterministic in
// allocs/op so the -compare gate can check allocations exactly.
func RunMicro(w io.Writer, seed int64) ([]BenchResult, error) {
	// One structure powers the instantiate and codec benchmarks; quick
	// effort keeps its generation out of the measured loops' noise floor.
	s, _, err := GenerateForBenchmark("TwoStageOpamp", EffortQuick, seed)
	if err != nil {
		return nil, err
	}
	c := s.Circuit()
	rng := rand.New(rand.NewSource(seed))
	const batchSize = 1024
	ws := make([][]int, batchSize)
	hs := make([][]int, batchSize)
	for q := 0; q < batchSize; q++ {
		ws[q] = make([]int, c.N())
		hs[q] = make([]int, c.N())
		for i, b := range c.Blocks {
			ws[q][i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
			hs[q][i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
		}
	}
	cs := core.Compile(s)
	cws, chs := CoveredQueryPool(s, rng, batchSize)
	if cws == nil {
		return nil, fmt.Errorf("experiments: benchmark structure has no placements to query")
	}

	// A K=3 portfolio sharing s as member 0 (MemberSeed(seed, 0) == seed),
	// plus a covered routed query pool drawn from every member's boxes, so
	// the routed op exercises all K indices without ever touching a
	// backup — the 0 allocs/op sentinel for best-of-K routing.
	members := []*core.Structure{s}
	for i := 1; i < 3; i++ {
		m, _, err := GenerateForBenchmark("TwoStageOpamp", EffortQuick, portfolio.MemberSeed(seed, i))
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	pf, err := portfolio.New(members)
	if err != nil {
		return nil, err
	}
	pws := make([][]int, batchSize)
	phs := make([][]int, batchSize)
	for m := range members {
		mws, mhs := CoveredQueryPool(members[m], rng, (batchSize+2)/3)
		if mws == nil {
			return nil, fmt.Errorf("experiments: portfolio member %d has no placements to query", m)
		}
		for j := range mws {
			if idx := j*3 + m; idx < batchSize {
				pws[idx], phs[idx] = mws[j], mhs[j]
			}
		}
	}
	// The metric children the instrumented op records into — resolved
	// once, exactly as the serve middleware resolves its children at
	// construction, and the request counter found by status code on each
	// hit, as the middleware finds it. The loop then measures only what a
	// live request pays per hit: atomic loads and adds, no locks, no
	// allocation.
	obsReg := obs.NewRegistry()
	reqHist := obsReg.HistogramVec("mps_http_request_duration_seconds", "bench", "route").With("instantiate")
	reqCount := obsReg.CounterVec("mps_http_requests_total", "bench", "route", "code").Codes("instantiate")
	stageDur := obsReg.DurationCounterVec("mps_stage_duration_seconds_total", "bench", "stage").With(obs.StageInstantiate.String())
	stageOps := obsReg.CounterVec("mps_stage_ops_total", "bench", "stage").With(obs.StageInstantiate.String())

	var v2 bytes.Buffer
	if err := s.SaveBinary(&v2); err != nil {
		return nil, err
	}
	var v1 bytes.Buffer
	if err := s.Save(&v1); err != nil {
		return nil, err
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		// Fixed seed on every iteration: the annealing run is then
		// identical work each time, so allocs/op is exactly reproducible —
		// a varying seed would shift the average with the iteration count
		// and flake the -compare gate's exact allocation check.
		{"generate/circ01/quick", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := GenerateForBenchmark("circ01", EffortQuick, seed); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The GA backend's twin of the op above — same circuit, budgets,
		// and fixed seed, so the perf gate watches both generation
		// backends. The GA runs one seeded population on one goroutine,
		// making its allocs/op exactly reproducible too.
		{"generate_ga_fixed_seed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := generateBenchmark("circ01", EffortQuick, gen.Spec{Backend: "ga", Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The mixed covered/backup query stream through the compiled index:
		// what a served query pays, backup answers included.
		{"instantiate_compiled/TwoStageOpamp", func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				if err := cs.InstantiateInto(&res, ws[q], hs[q]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Covered-only queries: the index alone, with the backup template
		// out of the loop. This row is the CI gate's zero-allocation
		// sentinel — allocs/op must stay exactly 0.
		{"instantiate_covered_compiled/TwoStageOpamp", func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				if err := cs.InstantiateInto(&res, cws[q], chs[q]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The covered compiled op with the metric epilogue a served
		// request pays: timing the work, the global stage counters, then
		// the per-route histogram and request counter. The CI gate pins
		// this at exactly 0 allocs/op — instrumentation must never put the
		// hot path back on the allocator.
		{"mps_request_instrumented/TwoStageOpamp", func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				t0 := time.Now()
				if err := cs.InstantiateInto(&res, cws[q], chs[q]); err != nil {
					b.Fatal(err)
				}
				d := time.Since(t0)
				stageDur.AddDuration(d)
				stageOps.Inc()
				reqHist.Observe(d)
				reqCount.Inc(200)
			}
		}},
		// The instrumented op plus the span layer a traced request pays:
		// start a real span on the trace, do the work, commit the span,
		// then offer the finished trace to a non-retaining store (the
		// tail sampler's common case — fast, successful, local — is a
		// lock-free discard). One trace serves 32 iterations, matching
		// its span capacity, so every iteration commits a live span and
		// the per-request NewTrace and the slot block its 9th span
		// allocates amortize below the exact gate; the span path itself
		// must contribute exactly 0 allocs/op.
		{"mps_request_traced/TwoStageOpamp", func(b *testing.B) {
			ts := obs.NewTraceStore("bench", 4, 0, 0)
			rt := obs.NewTrace()
			var res core.Result
			for i := 0; i < b.N; i++ {
				if i%32 == 0 {
					rt = obs.NewTrace()
				}
				q := i % batchSize
				span := rt.StartSpan(obs.StageInstantiate)
				if err := cs.InstantiateInto(&res, cws[q], chs[q]); err != nil {
					b.Fatal(err)
				}
				d := span.End()
				stageDur.AddDuration(d)
				stageOps.Inc()
				reqHist.Observe(d)
				reqCount.Inc(200)
				if kept := ts.Offer(rt, "instantiate", "", 200, d); kept != nil {
					b.Fatalf("non-retaining store kept a trace (%s)", kept.Retained)
				}
			}
		}},
		// Best-of-K routing on covered queries under the area rule: one
		// walk of the merged index for every member, terms (area, dead
		// space and aspect, no wire) for the covering members when two or
		// more cover, and the winner's answer from its slot — the CI gate
		// pins this at exactly 0 allocs/op.
		{"portfolio_route_covered/TwoStageOpamp", func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				if member, err := pf.InstantiateWeightedInto(&res, cost.Weights{}, pws[q], phs[q]); err != nil || member < 0 {
					b.Fatalf("member %d, err %v", member, err)
				}
			}
		}},
		// Weight-aware best-of-K routing on the same covered pool: one
		// merged walk, terms with the wire term (the weights price wire)
		// for multiply covered queries, then the winner's answer from its
		// slot. Weighted routing must stay off the allocator exactly like
		// the area rule — the CI gate pins this at 0 allocs/op too.
		{"portfolio_route_weighted/TwoStageOpamp", func(b *testing.B) {
			w := cost.Weights{Wire: 1, Area: 0.01}
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				if member, err := pf.InstantiateWeightedInto(&res, w, pws[q], phs[q]); err != nil || member < 0 {
					b.Fatalf("member %d, err %v", member, err)
				}
			}
		}},
		// The portfolio twin of instantiate_compiled: the mixed
		// covered/backup stream through best-of-K routing.
		{"portfolio_mixed/TwoStageOpamp", func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				q := i % batchSize
				if _, err := pf.InstantiateWeightedInto(&res, cost.Weights{}, ws[q], hs[q]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"encode/binary_v2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := s.SaveBinary(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"decode/binary_v2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Load(bytes.NewReader(v2.Bytes()), c); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"encode/gob_v1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := s.Save(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"decode/gob_v1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Load(bytes.NewReader(v1.Bytes()), c); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	fmt.Fprintln(w, "Micro-benchmarks (testing.Benchmark, default 1s per op)")
	tb := stats.NewTable("op", "n", "ns/op", "B/op", "allocs/op")
	out := make([]BenchResult, 0, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bench.fn(b)
		})
		row := BenchResult{
			Name:        bench.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		out = append(out, row)
		tb.AddRow(row.Name, row.N, fmt.Sprintf("%.0f", row.NsPerOp), row.BytesPerOp, row.AllocsPerOp)
	}
	tb.Render(w)
	return out, nil
}

// CoveredQueryPool draws count dimension vectors uniformly from stored
// placements' dimension boxes, so every query resolves to a stored
// placement. It returns nils when the structure holds no placements —
// callers must treat that as "nothing to benchmark". Shared by RunMicro,
// RunPareto and the root covered-query benchmarks and batch tests.
func CoveredQueryPool(s *core.Structure, rng *rand.Rand, count int) (ws, hs [][]int) {
	ids := s.IDs()
	if len(ids) == 0 {
		return nil, nil
	}
	n := s.Circuit().N()
	ws = make([][]int, count)
	hs = make([][]int, count)
	for q := 0; q < count; q++ {
		p := s.Get(ids[rng.Intn(len(ids))])
		ws[q] = make([]int, n)
		hs[q] = make([]int, n)
		for i := 0; i < n; i++ {
			ws[q][i] = p.WLo[i] + rng.Intn(p.WHi[i]-p.WLo[i]+1)
			hs[q][i] = p.HLo[i] + rng.Intn(p.HHi[i]-p.HLo[i]+1)
		}
	}
	return ws, hs
}

// WriteBenchJSON writes the rows as a BENCH_results.json document at
// path, atomically (CI uploads the file; a crashed run must not leave a
// torn one). Rows are sorted by op name and struct fields encode in
// declaration order, so two runs differ only where their numbers do —
// the property the checked-in BENCH_baseline.json diffs rely on.
func WriteBenchJSON(path string, seed int64, results []BenchResult) error {
	return WriteBenchReport(path, seed, results, nil, nil)
}

// WriteBenchReport is WriteBenchJSON plus the optional backends
// (mpsbench -backends -json) and pareto (mpsbench -pareto -json)
// sections.
func WriteBenchReport(path string, seed int64, results []BenchResult, backends []BackendRow, pareto []ParetoRow) error {
	results = append([]BenchResult(nil), results...)
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	report := BenchReport{
		Version:    1,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Created:    time.Now().UTC(),
		Results:    results,
		Backends:   backends,
		Pareto:     pareto,
	}
	_, err := store.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	})
	return err
}
