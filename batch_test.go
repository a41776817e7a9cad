package mps

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mps/internal/core"
	"mps/internal/experiments"
)

// batchTestStructure caches one quick TwoStageOpamp structure for the batch
// tests so each test doesn't pay a fresh generation run.
var batchTestStructure = struct {
	once sync.Once
	s    *Structure
	err  error
}{}

func batchStructure(t *testing.T) *Structure {
	t.Helper()
	bt := &batchTestStructure
	bt.once.Do(func() {
		c, err := Benchmark("TwoStageOpamp")
		if err != nil {
			bt.err = err
			return
		}
		bt.s, _, bt.err = generate(c, quickOpts(1))
	})
	if bt.err != nil {
		t.Fatal(bt.err)
	}
	return bt.s
}

// randomQueries builds in-bounds random queries; covered and uncovered
// vectors both occur, so the backup path is exercised too.
func randomQueries(c *Circuit, rng *rand.Rand, n int) []DimQuery {
	qs := make([]DimQuery, n)
	for i := range qs {
		ws, hs := randomDims(c, rng)
		qs[i] = DimQuery{Ws: ws, Hs: hs}
	}
	return qs
}

// asBatchResult wraps a serial Instantiate answer in the BatchResult the
// batch path produces, including the Member convention (-1 for backup or
// errored answers, 0 for stored answers on a single structure).
func asBatchResult(res Result, err error) BatchResult {
	br := BatchResult{Result: res, Err: err}
	if err != nil || res.FromBackup {
		br.Member = -1
	}
	return br
}

// referenceQueries returns a seeded query pool for s and the answer the
// reference scan (core.Structure.Instantiate) gives to each query: n
// uniform random queries (mostly backup answers on a sparse structure), n
// drawn from stored boxes, both corners (WLo/HLo and WHi/HHi) of every
// stored box and one out-of-bounds query, shuffled so every batch chunk
// mixes the kinds.
func referenceQueries(t *testing.T, s *Structure, seed int64, n int) (qs []DimQuery, want []BatchResult) {
	t.Helper()
	c := s.Circuit()
	rng := rand.New(rand.NewSource(seed))
	qs = randomQueries(c, rng, n)
	ws, hs := experiments.CoveredQueryPool(s.Structure, rng, n)
	if ws == nil {
		t.Fatal("structure has no stored placements")
	}
	for i := range ws {
		qs = append(qs, DimQuery{Ws: ws[i], Hs: hs[i]})
	}
	for _, id := range s.IDs() {
		p := s.Get(id)
		qs = append(qs,
			DimQuery{Ws: slices.Clone(p.WLo), Hs: slices.Clone(p.HLo)},
			DimQuery{Ws: slices.Clone(p.WHi), Hs: slices.Clone(p.HHi)})
	}
	oob := DimQuery{Ws: slices.Clone(qs[0].Ws), Hs: slices.Clone(qs[0].Hs)}
	oob.Ws[0] = c.Blocks[0].WMax + 1
	qs = append(qs, oob)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })

	want = make([]BatchResult, len(qs))
	var stored, backup, failed int
	for i, q := range qs {
		res, err := s.Structure.Instantiate(q.Ws, q.Hs)
		want[i] = asBatchResult(res, err)
		switch {
		case err != nil:
			failed++
		case res.FromBackup:
			backup++
		default:
			stored++
		}
	}
	if stored == 0 || backup == 0 || failed == 0 {
		t.Fatalf("seed %d: the reference answers %d queries from stored placements, %d from the backup and %d with an error; want every kind",
			seed, stored, backup, failed)
	}
	return qs, want
}

// answerDiff says how an answer differs from the reference answer — error
// text, placement ID, member, backup flag or anchors — or returns "" when
// they agree.
func answerDiff(got, want BatchResult) string {
	switch {
	case (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error():
		return fmt.Sprintf("error %v, reference %v", got.Err, want.Err)
	case got.PlacementID != want.PlacementID || got.Member != want.Member || got.FromBackup != want.FromBackup:
		return fmt.Sprintf("placement %d member %d backup %v, reference placement %d member %d backup %v",
			got.PlacementID, got.Member, got.FromBackup, want.PlacementID, want.Member, want.FromBackup)
	case !slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y):
		return fmt.Sprintf("anchors %v/%v, reference %v/%v", got.X, got.Y, want.X, want.Y)
	}
	return ""
}

// TestInstantiateBatchMatchesSerial checks a batch returns, in query
// order, exactly what the reference scan answers query by query, on
// random, covered, box-corner and out-of-bounds queries.
func TestInstantiateBatchMatchesSerial(t *testing.T) {
	s := batchStructure(t)
	const seed = 42
	queries, want := referenceQueries(t, s, seed, 250)
	for i, br := range s.InstantiateBatch(queries) {
		if d := answerDiff(br, want[i]); d != "" {
			t.Fatalf("seed %d, query %d (%v/%v): %s", seed, i, queries[i].Ws, queries[i].Hs, d)
		}
	}
}

// TestInstantiateBatchInvalidQuery checks a single bad query fails alone
// without aborting its batch.
func TestInstantiateBatchInvalidQuery(t *testing.T) {
	s := batchStructure(t)
	rng := rand.New(rand.NewSource(7))
	queries := randomQueries(s.Circuit(), rng, 8)
	queries[3] = DimQuery{Ws: []int{1}, Hs: []int{1}} // wrong length

	out := s.InstantiateBatch(queries)
	for i, br := range out {
		if i == 3 {
			if br.Err == nil {
				t.Error("invalid query 3 should carry an error")
			}
			continue
		}
		if br.Err != nil {
			t.Errorf("query %d failed: %v", i, br.Err)
		}
	}
}

// TestInstantiateBatchArena pins the per-batch answer arena: a batch of
// covered queries costs exactly two allocations, its result slice and its
// arena, whatever its size, on a structure, a portfolio and a weighted
// portfolio, and every result's anchors are capped at their own length,
// so appending to one never writes into another.
func TestInstantiateBatchArena(t *testing.T) {
	s := batchStructure(t)
	p, _ := genQuickPortfolio(t, "TwoStageOpamp", 7)
	rng := rand.New(rand.NewSource(5))
	covered := func(st *core.Structure, w Weights) []DimQuery {
		ws, hs := experiments.CoveredQueryPool(st, rng, 256)
		if ws == nil {
			t.Fatal("structure has no stored placements")
		}
		qs := make([]DimQuery, len(ws))
		for i := range qs {
			qs[i] = DimQuery{Ws: ws[i], Hs: hs[i], Weights: w}
		}
		return qs
	}
	cases := []struct {
		name    string
		queries []DimQuery
		batch   func([]DimQuery) []BatchResult
	}{
		{"structure", covered(s.Structure, Weights{}), s.InstantiateBatch},
		{"portfolio", covered(p.Member(0), Weights{}), p.InstantiateBatch},
		{"portfolio weighted", covered(p.Member(1), WeightLadder(3)[1]), p.InstantiateBatch},
	}
	for _, tc := range cases {
		for _, br := range tc.batch(tc.queries) {
			if br.Err != nil || br.FromBackup || br.Member < 0 {
				t.Fatalf("%s: covered query answered %+v", tc.name, br)
			}
			if cap(br.X) != len(br.X) || cap(br.Y) != len(br.Y) {
				t.Fatalf("%s: anchors len %d/%d, cap %d/%d", tc.name, len(br.X), len(br.Y), cap(br.X), cap(br.Y))
			}
		}
		for _, n := range []int{1, 64, 256} {
			qs := tc.queries[:n]
			if allocs := testing.AllocsPerRun(20, func() { tc.batch(qs) }); allocs != 2 {
				t.Errorf("%s: %d covered queries take %v allocations, want 2", tc.name, n, allocs)
			}
		}
	}
}

// TestInstantiateBatchEmptyAndSmall covers a small batch and the
// zero-length batch.
func TestInstantiateBatchEmptyAndSmall(t *testing.T) {
	s := batchStructure(t)
	if out := s.InstantiateBatch(nil); len(out) != 0 {
		t.Errorf("nil batch returned %d results", len(out))
	}
	rng := rand.New(rand.NewSource(9))
	queries := randomQueries(s.Circuit(), rng, 3)
	out := s.InstantiateBatch(queries)
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for i, br := range out {
		if br.Err != nil {
			t.Errorf("query %d: %v", i, br.Err)
		}
	}
}

// TestConcurrentInstantiate hammers one generated structure from many
// goroutines mixing direct Instantiate calls and InstantiateBatch, and
// asserts every answer equals the reference scan's. Run under -race this
// is the concurrency contract test for the whole query path (compiled
// index, pooled masks, backup template).
func TestConcurrentInstantiate(t *testing.T) {
	s := batchStructure(t)
	const seed = 1234
	queries, want := referenceQueries(t, s, seed, 200)
	nQueries := len(queries)

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 == 0 {
				// Whole batch.
				for i, br := range s.InstantiateBatch(queries) {
					if d := answerDiff(br, want[i]); d != "" {
						errs <- fmt.Sprintf("seed %d, batch query %d: %s", seed, i, d)
						return
					}
				}
				return
			}
			// Direct single queries, each goroutine in its own order.
			for k := 0; k < nQueries; k++ {
				i := (k*7 + g*13) % nQueries
				res, err := s.Instantiate(queries[i].Ws, queries[i].Hs)
				if d := answerDiff(asBatchResult(res, err), want[i]); d != "" {
					errs <- fmt.Sprintf("seed %d, single query %d: %s", seed, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
