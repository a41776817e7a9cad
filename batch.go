package mps

// This file implements the concurrent batched query engine over the
// compiled query index — the serving hot path of the paper's Fig. 1b.
// Inside a sizing loop (or behind cmd/mpsd) queries arrive in batches;
// fanning them across a bounded worker pool turns the structure's
// near-constant per-query time into near-linear multicore throughput.
// Batches query the flat CompiledStructure (compiled lazily on first
// batch, cached thereafter), which is safe for concurrent readers (its
// query scratch is pooled), so workers share the index directly with no
// locking on the hot path. Portfolio batches ride the same pool: the
// per-query function routes through the best covering member instead of a
// single index.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DimQuery is one placement request: per-block widths and heights in block
// order, exactly the arguments of Structure.Instantiate.
type DimQuery struct {
	Ws []int
	Hs []int
	// Weights optionally routes this query by weighted per-objective cost
	// in portfolio batches (see Portfolio.InstantiateWeighted). The zero
	// vector is the default area-then-deadspace rule; single-structure
	// batches ignore it (there is only one member to route to).
	Weights Weights
}

// BatchResult pairs one query's instantiation result with its error, so a
// single invalid query fails alone rather than aborting the whole batch.
//
// Stored answers of one batch share a single backing array: each result's
// X and Y are sub-slices of it, capped at their own length, so appending
// to one never writes into another. Backup answers carry the backup's own
// slices; errored results carry none.
type BatchResult struct {
	Result
	// Member is the portfolio member that answered (portfolio batches):
	// the member index for routed answers, -1 when the backup answered or
	// the query errored. Single-structure batches report 0 for stored
	// answers and -1 otherwise, so Member >= 0 always means a stored
	// placement answered.
	Member int
	Err    error
}

// batchChunk is the number of queries a worker claims at a time. Chunking
// amortizes the atomic fetch-add across queries; individual queries are
// sub-microsecond, so per-query work stealing would be all contention.
const batchChunk = 32

// serialBatchThreshold is the batch size below which fan-out overhead
// (goroutine startup, the final barrier) exceeds the parallel win and
// InstantiateBatch runs serially instead.
const serialBatchThreshold = 2 * batchChunk

// batchWorkers resolves how many goroutines a batch fans out across — the
// one place the worker count is decided, pinned by TestBatchWorkersClamp.
// workers <= 0 selects GOMAXPROCS; the count is then clamped to the number
// of batchChunk-sized chunks so small parallel batches never spawn workers
// with no chunk to claim; 1 (also chosen for every batch below
// serialBatchThreshold) means "run serially, spawn nothing".
func batchWorkers(numQueries, workers int) int {
	if numQueries < serialBatchThreshold {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunks := (numQueries + batchChunk - 1) / batchChunk; workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runBatch answers every query via fn and returns results in query order,
// fanning the batch across batchWorkers goroutines. fn must be safe for
// concurrent calls and writes its answer into out, whose X and Y arrive as
// empty slices of one per-batch arena with room for n anchors each — an
// InstantiateInto-style answer fills them without allocating. fn's error
// clears the answer.
func runBatch(queries []DimQuery, workers, n int, fn func(q DimQuery, out *BatchResult)) []BatchResult {
	out := make([]BatchResult, len(queries))
	arena := make([]int, 2*n*len(queries))
	answer := func(i int) {
		a := arena[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		out[i].X, out[i].Y = a[:0:n], a[n:n]
		fn(queries[i], &out[i])
		if out[i].Err != nil {
			out[i].Result = Result{}
		}
	}
	if workers = batchWorkers(len(queries), workers); workers == 1 {
		for i := range queries {
			answer(i)
		}
		return out
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(batchChunk))
				start := end - batchChunk
				if start >= len(queries) {
					return
				}
				if end > len(queries) {
					end = len(queries)
				}
				for i := start; i < end; i++ {
					answer(i)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// InstantiateBatch answers every query and returns results in query order,
// fanning the batch across a worker pool bounded by GOMAXPROCS. Small
// batches run serially. The structure must not be mutated concurrently
// (it never is after Run/LoadFile return).
func (s *Structure) InstantiateBatch(queries []DimQuery) []BatchResult {
	return s.InstantiateBatchWorkers(queries, 0)
}

// InstantiateBatchWorkers is InstantiateBatch with an explicit worker
// bound: workers <= 0 selects GOMAXPROCS, 1 forces serial execution.
// Batches below serialBatchThreshold run serially regardless of workers —
// the bound caps fan-out, it does not force it.
func (s *Structure) InstantiateBatchWorkers(queries []DimQuery, workers int) []BatchResult {
	cs := s.Compiled()
	return runBatch(queries, workers, s.Circuit().N(), func(q DimQuery, out *BatchResult) {
		out.Err = cs.InstantiateInto(&out.Result, q.Ws, q.Hs)
		if out.Err != nil || out.FromBackup {
			out.Member = -1
		}
	})
}

// InstantiateBatch answers every query through best-of-K routing and
// returns results in query order; see Structure.InstantiateBatch for the
// fan-out contract. Each result's Member records the answering member.
func (p *Portfolio) InstantiateBatch(queries []DimQuery) []BatchResult {
	return p.InstantiateBatchWorkers(queries, 0)
}

// InstantiateBatchWorkers is the portfolio InstantiateBatch with an
// explicit worker bound, mirroring Structure.InstantiateBatchWorkers.
// Queries carrying a non-zero Weights vector route by weighted cost;
// the rest take the default area rule unchanged.
func (p *Portfolio) InstantiateBatchWorkers(queries []DimQuery, workers int) []BatchResult {
	return runBatch(queries, workers, p.Circuit().N(), func(q DimQuery, out *BatchResult) {
		out.Member, out.Err = p.InstantiateWeightedInto(&out.Result, q.Weights, q.Ws, q.Hs)
	})
}
