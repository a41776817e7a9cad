package mps

import (
	"math/rand"
	"reflect"
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

// TestInstantiateBatchMatchesSerial checks the worker pool returns, in query
// order, exactly what serial Instantiate calls return.
func TestInstantiateBatchMatchesSerial(t *testing.T) {
	s := batchStructure(t)
	rng := rand.New(rand.NewSource(42))
	queries := randomQueries(s.Circuit(), rng, 500)

	want := make([]BatchResult, len(queries))
	for i, q := range queries {
		res, err := s.Instantiate(q.Ws, q.Hs)
		want[i] = asBatchResult(res, err)
	}

	for _, workers := range []int{0, 1, 2, 8} {
		got := s.InstantiateBatchWorkers(queries, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: batch results differ from serial execution", workers)
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

// TestInstantiateBatchArena pins the per-batch answer arena: covered
// answers cost no allocation per query, on a structure and on a weighted
// portfolio, serial and fanned out, and every result's anchors are capped
// at their own length, so appending to one never writes into another.
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
		batch   func([]DimQuery, int) []BatchResult
	}{
		{"structure", covered(s.Structure, Weights{}), s.InstantiateBatchWorkers},
		{"portfolio", covered(p.Member(0), Weights{}), p.InstantiateBatchWorkers},
		{"portfolio weighted", covered(p.Member(1), WeightLadder(3)[1]), p.InstantiateBatchWorkers},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			for _, br := range tc.batch(tc.queries, workers) {
				if br.Err != nil || br.FromBackup || br.Member < 0 {
					t.Fatalf("%s: covered query answered %+v", tc.name, br)
				}
				if cap(br.X) != len(br.X) || cap(br.Y) != len(br.Y) {
					t.Fatalf("%s: anchors len %d/%d, cap %d/%d", tc.name, len(br.X), len(br.Y), cap(br.X), cap(br.Y))
				}
			}
			small := testing.AllocsPerRun(10, func() { tc.batch(tc.queries[:64], workers) })
			large := testing.AllocsPerRun(10, func() { tc.batch(tc.queries, workers) })
			if small != large {
				t.Errorf("%s, workers=%d: 64 covered queries take %v allocations, 256 take %v",
					tc.name, workers, small, large)
			}
		}
	}
}

// TestInstantiateBatchEmptyAndSmall covers the serial fast path and the
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
// asserts every answer is identical to serial execution. Run under -race
// this is the concurrency contract test for the whole query path
// (structure rows, pooled scratch, backup template).
func TestConcurrentInstantiate(t *testing.T) {
	s := batchStructure(t)
	rng := rand.New(rand.NewSource(1234))
	const nQueries = 400
	queries := randomQueries(s.Circuit(), rng, nQueries)

	want := make([]BatchResult, nQueries)
	for i, q := range queries {
		res, err := s.Instantiate(q.Ws, q.Hs)
		want[i] = asBatchResult(res, err)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 == 0 {
				// Whole batch through the worker pool.
				got := s.InstantiateBatchWorkers(queries, 4)
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						errs <- "batch result diverged from serial"
						return
					}
				}
				return
			}
			// Direct single queries, each goroutine in its own order.
			for k := 0; k < nQueries; k++ {
				i := (k*7 + g*13) % nQueries
				res, err := s.Instantiate(queries[i].Ws, queries[i].Hs)
				if !reflect.DeepEqual(asBatchResult(res, err), want[i]) {
					errs <- "single result diverged from serial"
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
