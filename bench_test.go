package mps

// This file is the benchmark harness: one bench per paper table/figure
// plus ablations of the reproduction's own design choices. Benchmarks use
// reduced annealing budgets (experiments.EffortQuick equivalents) so `go
// test -bench=.` completes in minutes; cmd/mpsbench runs the same
// harnesses at higher effort.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/experiments"
	"mps/internal/explorer"
	"mps/internal/optplace"
	"mps/internal/placement"
	"mps/internal/portfolio"
	"mps/internal/template"
)

// --- Table 1: benchmark construction -----------------------------------

// BenchmarkTable1Construction measures building all nine benchmark
// netlists — the workload behind Table 1.
func BenchmarkTable1Construction(b *testing.B) {
	names := circuits.Names()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			if _, err := circuits.ByName(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table 2: generation and instantiation -----------------------------

// benchGenerate runs one structure generation at bench budget.
func benchGenerate(b *testing.B, name string) {
	b.Helper()
	c := circuits.MustByName(name)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
			Seed:          int64(i + 1),
			MaxIterations: 30,
			BDIO:          bdio.Config{Steps: 60},
		})
		if err != nil {
			b.Fatal(err)
		}
		if s.NumPlacements() == 0 {
			b.Fatal("empty structure")
		}
	}
}

// BenchmarkTable2Generation regenerates the Table 2 generation-time column
// (one sub-benchmark per circuit, small/medium/large spread).
func BenchmarkTable2Generation(b *testing.B) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer", "tso-cascode", "benchmark24"} {
		b.Run(name, func(b *testing.B) { benchGenerate(b, name) })
	}
}

// sharedStructures caches one generated structure per circuit for the
// instantiation benchmarks, so b.N loops time only the query path.
var (
	sharedMu         sync.Mutex
	sharedStructures = map[string]*core.Structure{}
)

func structureFor(b *testing.B, name string) *core.Structure {
	b.Helper()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := sharedStructures[name]; ok {
		return s
	}
	s, _, err := experiments.GenerateForBenchmark(name, experiments.EffortQuick, 1)
	if err != nil {
		b.Fatal(err)
	}
	sharedStructures[name] = s
	return s
}

// BenchmarkTable2Instantiation regenerates the Table 2 instantiation-time
// column: one random query per iteration against a pre-generated
// structure's compiled index, the path mpsd serves.
func BenchmarkTable2Instantiation(b *testing.B) {
	for _, name := range circuits.Names() {
		b.Run(name, func(b *testing.B) {
			s := structureFor(b, name)
			cs := core.Compile(s)
			c := s.Circuit()
			rng := rand.New(rand.NewSource(2))
			ws := make([]int, c.N())
			hs := make([]int, c.N())
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, blk := range c.Blocks {
					ws[j] = blk.WMin + rng.Intn(blk.WMax-blk.WMin+1)
					hs[j] = blk.HMin + rng.Intn(blk.HMax-blk.HMin+1)
				}
				if _, err := cs.Instantiate(ws, hs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coveredQueries draws count dimension vectors from inside stored
// placements' dimension boxes so every query hits a stored placement —
// the workload that isolates the query index from the backup.
func coveredQueries(b *testing.B, s *core.Structure, rng *rand.Rand, count int) (ws, hs [][]int) {
	b.Helper()
	ws, hs = experiments.CoveredQueryPool(s, rng, count)
	if ws == nil {
		b.Fatal("structure has no stored placements")
	}
	return ws, hs
}

// BenchmarkCompiledInstantiate measures the compiled flat index on
// covered queries, one sub-benchmark per seed circuit: exactly 0
// allocs/op on every one.
func BenchmarkCompiledInstantiate(b *testing.B) {
	for _, name := range circuits.Names() {
		b.Run(name, func(b *testing.B) {
			s := structureFor(b, name)
			cs := core.Compile(s)
			ws, hs := coveredQueries(b, s, rand.New(rand.NewSource(21)), 1024)
			var res core.Result
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := i % len(ws)
				if err := cs.InstantiateInto(&res, ws[q], hs[q]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunBalanced times one balanced-effort generation of
// TwoStageOpamp through Run (300 explorer iterations of 300 BDIO steps,
// then Compact and Renumber), without and with a Progress hook, which
// adds the per-iteration Coverage the server's jobs report. That
// Coverage reads the structure's kept exponentials, so the two rows
// differ by two passes over the placements per iteration.
func BenchmarkRunBalanced(b *testing.B) {
	c := circuits.MustByName("TwoStageOpamp")
	for _, progress := range []bool{false, true} {
		name := "plain"
		var hook func(Progress)
		if progress {
			name, hook = "progress", func(Progress) {}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), Request{Circuit: c, Options: Options{Seed: 1, Progress: hook}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures building the flat index from a generated
// structure — the one-time cost the compile-once/query-many contract
// amortizes away. Each iteration reloads the structure (outside the
// timer) from a v2 blob so Compile never sees its own cached result.
func BenchmarkCompile(b *testing.B) {
	s := structureFor(b, "tso-cascode")
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	c := s.Circuit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := core.Load(bytes.NewReader(data), c)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if core.Compile(fresh).NumPlacements() != s.NumPlacements() {
			b.Fatal("compile lost placements")
		}
	}
}

// BenchmarkInstantiateBatch sweeps the batched query engine's worker count
// on TwoStageOpamp — the serving hot path behind cmd/mpsd. workers-1 is the
// serial baseline; the target is >2× its throughput at workers-8. Scaling
// is bounded by physical cores: on a single-CPU machine (GOMAXPROCS=1) all
// worker counts converge to the serial rate.
func BenchmarkInstantiateBatch(b *testing.B) {
	cs := structureFor(b, "TwoStageOpamp")
	s := &Structure{cs}
	c := cs.Circuit()
	rng := rand.New(rand.NewSource(5))
	const batchSize = 4096
	queries := randomQueries(c, rng, batchSize)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := s.InstantiateBatchWorkers(queries, workers)
				if len(out) != batchSize {
					b.Fatalf("got %d results", len(out))
				}
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// routeBatch is the query count of one BenchmarkPortfolioRoute request,
// the repository benchmark's batch size.
const routeBatch = 256

// BenchmarkPortfolioRoute measures weighted best-of-K routing at K = 1, 3
// and 8 over balanced-effort TwoStageOpamp members generated as
// Run(K=8) generates them (member seeds from seed 1, the default weight
// ladder); K = 3 is the repository benchmark's portfolio_weighted
// artifact. Requests are shaped like that workload's: 256 queries, 3 of 4
// inside a stored box of a member (members in turn), 1 of 4 uniform in the
// designer bounds, per-query weights cycling the ladder. It reports ns per
// query and the bytes of the merged index routing walks.
func BenchmarkPortfolioRoute(b *testing.B) {
	c := circuits.MustByName("TwoStageOpamp")
	run, err := Run(context.Background(), Request{Circuit: c, Options: Options{Seed: 1}, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	members := make([]*core.Structure, run.Portfolio.K())
	for i := range members {
		members[i] = run.Portfolio.Member(i)
	}
	for _, k := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			p, err := portfolio.New(members[:k])
			if err != nil {
				b.Fatal(err)
			}
			compiled := make([]*core.CompiledStructure, k)
			for i, m := range members[:k] {
				compiled[i] = core.Compile(m)
			}
			indexBytes := core.Merge(compiled).Bytes()
			ladder := WeightLadder(k)
			rng := rand.New(rand.NewSource(7))
			reqs := make([][]DimQuery, 16)
			for r := range reqs {
				covered := 0
				for q := 0; q < routeBatch; q++ {
					dq := DimQuery{Ws: make([]int, c.N()), Hs: make([]int, c.N()), Weights: ladder[q%len(ladder)]}
					for i, blk := range c.Blocks {
						dq.Ws[i] = blk.WRange().Rand(rng)
						dq.Hs[i] = blk.HRange().Rand(rng)
					}
					if q%4 != 3 {
						m := members[covered%k]
						covered++
						ids := m.IDs()
						pl := m.Get(ids[rng.Intn(len(ids))])
						for i := range dq.Ws {
							dq.Ws[i] = pl.WLo[i] + rng.Intn(pl.WHi[i]-pl.WLo[i]+1)
							dq.Hs[i] = pl.HLo[i] + rng.Intn(pl.HHi[i]-pl.HLo[i]+1)
						}
					}
					reqs[r] = append(reqs[r], dq)
				}
			}
			var res core.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range reqs[i%len(reqs)] {
					if _, err := p.InstantiateWeightedInto(&res, q.Weights, q.Ws, q.Hs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*routeBatch), "ns/query")
			b.ReportMetric(float64(indexBytes), "index_B")
		})
	}
}

// --- Figure 5: floorplan instantiations --------------------------------

// BenchmarkFigure5Instantiation measures producing the two structure
// instantiations and one template instantiation of Figure 5.
func BenchmarkFigure5Instantiation(b *testing.B) {
	s := structureFor(b, "TwoStageOpamp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: lowest-cost selection sweep -----------------------------

// BenchmarkFigure6Sweep measures the 40-point dimension sweep with
// per-point structure selection and fixed-placement cost series.
func BenchmarkFigure6Sweep(b *testing.B) {
	s := structureFor(b, "TwoStageOpamp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure6(s, cost.DefaultWeights, 40)
		if err != nil {
			b.Fatal(err)
		}
		if fig.SelectionGain() > 1.05 {
			b.Fatalf("selection gain %.3f — structure not selecting lowest cost", fig.SelectionGain())
		}
	}
}

// --- Figure 7: tso-cascode instantiation -------------------------------

// BenchmarkFigure7Instantiation measures instantiating and rendering the
// 21-module tso-cascode floorplan.
func BenchmarkFigure7Instantiation(b *testing.B) {
	s := structureFor(b, "tso-cascode")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Baseline context: what Table 2's speed means ----------------------

// BenchmarkBaselineTemplatePlace times the template-based baseline placer
// on the same queries as BenchmarkTable2Instantiation/TwoStageOpamp.
func BenchmarkBaselineTemplatePlace(b *testing.B) {
	c := circuits.MustByName("TwoStageOpamp")
	tpl := template.Balanced(c)
	rng := rand.New(rand.NewSource(3))
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, blk := range c.Blocks {
			ws[j] = blk.WMin + rng.Intn(blk.WMax-blk.WMin+1)
			hs[j] = blk.HMin + rng.Intn(blk.HMax-blk.HMin+1)
		}
		if _, _, err := tpl.Place(ws, hs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineAnnealingPlace times the optimization-based baseline —
// the per-query cost a synthesis loop pays without a structure.
func BenchmarkBaselineAnnealingPlace(b *testing.B) {
	c := circuits.MustByName("TwoStageOpamp")
	fp := placement.DefaultFloorplan(c)
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for j, blk := range c.Blocks {
		ws[j] = (blk.WMin + blk.WMax) / 2
		hs[j] = (blk.HMin + blk.HMax) / 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optplace.Place(c, fp, ws, hs, optplace.Config{Steps: 2000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationQueryPath compares the compiled index's Lookup against
// the linear Covers scan on the same structure.
func BenchmarkAblationQueryPath(b *testing.B) {
	s := structureFor(b, "tso-cascode")
	c := s.Circuit()
	rng := rand.New(rand.NewSource(11))
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	fill := func() {
		for j, blk := range c.Blocks {
			ws[j] = blk.WMin + rng.Intn(blk.WMax-blk.WMin+1)
			hs[j] = blk.HMin + rng.Intn(blk.HMax-blk.HMin+1)
		}
	}
	cs := core.Compile(s)
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			cs.Lookup(ws, hs)
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			s.LookupLinear(ws, hs)
		}
	})
}

// BenchmarkAblationParallelChains compares one explorer chain against four
// feeding the same structure.
func BenchmarkAblationParallelChains(b *testing.B) {
	for _, chains := range []int{1, 4} {
		b.Run(map[int]string{1: "chains-1", 4: "chains-4"}[chains], func(b *testing.B) {
			c := circuits.MustByName("Mixer")
			for i := 0; i < b.N; i++ {
				_, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
					Seed:          13,
					MaxIterations: 40,
					Chains:        chains,
					BDIO:          bdio.Config{Steps: 60},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompact measures fragment re-merging on a freshly generated
// structure (the post-pass every anneal-backend run applies).
func BenchmarkCompact(b *testing.B) {
	c := circuits.MustByName("Mixer")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
			Seed:          int64(i),
			MaxIterations: 40,
			BDIO:          bdio.Config{Steps: 60},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.Compact()
	}
}

// BenchmarkScalingGeneration regenerates the block-count scaling study
// (extension experiment) at bench budgets.
func BenchmarkScalingGeneration(b *testing.B) {
	for _, c := range circuits.ScalingFamily([]int{5, 15, 25}) {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
					Seed:          1,
					MaxIterations: 30,
					BDIO:          bdio.Config{Steps: 60},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCodec is one structure writer BenchmarkSave and BenchmarkLoad
// compare.
type benchCodec struct {
	name string
	save func(io.Writer) error
}

// benchCodecs lists s's writers: binary v2, the one the program writes,
// and the legacy gob v1 and binary v3 that Load still reads.
func benchCodecs(s *core.Structure) []benchCodec {
	return []benchCodec{{"gob", s.Save}, {"binary", s.SaveBinary}, {"v3", s.SaveBinaryCompiled}}
}

// BenchmarkSave measures structure encoding per codec on a generated
// structure; file-bytes reports the encoded size.
func BenchmarkSave(b *testing.B) {
	s := structureFor(b, "TwoStageOpamp")
	for _, codec := range benchCodecs(s) {
		b.Run(codec.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := codec.save(&buf); err != nil {
				b.Fatal(err)
			}
			size := buf.Len()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := codec.save(&buf); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer deletes metrics reported before it.
			b.ReportMetric(float64(size), "file-bytes")
		})
	}
}

// BenchmarkLoad measures structure decoding per codec — the cost a
// warm-starting mpsd pays per persisted structure — and, in each codec's
// +compile row, decoding plus core.Compile: the state serving needs (a v3
// load leaves the index compiled, so its Compile is a cache hit). The
// acceptance target is binary measurably faster than gob and no larger on
// disk.
func BenchmarkLoad(b *testing.B) {
	s := structureFor(b, "TwoStageOpamp")
	c := s.Circuit()
	for _, codec := range benchCodecs(s) {
		var buf bytes.Buffer
		if err := codec.save(&buf); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		for _, compile := range []bool{false, true} {
			name := codec.name
			if compile {
				name += "+compile"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					loaded, err := core.Load(bytes.NewReader(data), c)
					if err != nil {
						b.Fatal(err)
					}
					if compile {
						core.Compile(loaded)
					}
				}
				b.ReportMetric(float64(len(data)), "file-bytes")
			})
		}
	}
}
