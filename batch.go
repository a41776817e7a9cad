package mps

// This file implements the batched query engine over the compiled query
// index — the serving hot path of the paper's Fig. 1b. Inside a sizing
// loop (or behind cmd/mpsd) queries arrive in batches, and a batch runs
// on the caller's goroutine, answering its queries in order from the flat
// CompiledStructure (compiled lazily on first batch, cached thereafter).
// Structures and portfolios are safe for concurrent readers (the index's
// query scratch is pooled), so a caller that wants several cores runs
// batches concurrently, as cmd/mpsd does with one batch per request.
// Portfolio batches take the same loop: the per-query function routes
// through the best covering member instead of a single index.

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

// runBatch answers every query via fn, in query order, and returns the
// results. fn writes its answer into out, whose X and Y arrive as empty
// slices of one per-batch arena with room for n anchors each — an
// InstantiateInto-style answer fills them without allocating. fn's error
// clears the answer.
func runBatch(queries []DimQuery, n int, fn func(q DimQuery, out *BatchResult)) []BatchResult {
	out := make([]BatchResult, len(queries))
	arena := make([]int, 2*n*len(queries))
	for i, q := range queries {
		a := arena[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		out[i].X, out[i].Y = a[:0:n], a[n:n]
		fn(q, &out[i])
		if out[i].Err != nil {
			out[i].Result = Result{}
		}
	}
	return out
}

// InstantiateBatch answers every query on the caller's goroutine and
// returns results in query order. The structure is safe for concurrent
// readers, so batches may run concurrently; it must not be mutated
// meanwhile (it never is after Run/LoadFile return).
func (s *Structure) InstantiateBatch(queries []DimQuery) []BatchResult {
	cs := s.Compiled()
	return runBatch(queries, s.Circuit().N(), func(q DimQuery, out *BatchResult) {
		out.Err = cs.InstantiateInto(&out.Result, q.Ws, q.Hs)
		if out.Err != nil || out.FromBackup {
			out.Member = -1
		}
	})
}

// InstantiateBatchWorkers is InstantiateBatch; workers is ignored.
//
// Deprecated: a batch runs on the caller's goroutine. Call
// InstantiateBatch. This wrapper remains only for the benchmark module's
// traced replay (bench/trace.go).
func (s *Structure) InstantiateBatchWorkers(queries []DimQuery, workers int) []BatchResult {
	return s.InstantiateBatch(queries)
}

// InstantiateBatch answers every query through best-of-K routing on the
// caller's goroutine and returns results in query order; see
// Structure.InstantiateBatch. Each result's Member records the answering
// member. Queries carrying a non-zero Weights vector route by weighted
// cost; the rest take the default area rule.
func (p *Portfolio) InstantiateBatch(queries []DimQuery) []BatchResult {
	return runBatch(queries, p.Circuit().N(), func(q DimQuery, out *BatchResult) {
		out.Member, out.Err = p.InstantiateWeightedInto(&out.Result, q.Weights, q.Ws, q.Hs)
	})
}

// InstantiateBatchWorkers is InstantiateBatch; workers is ignored.
//
// Deprecated: a batch runs on the caller's goroutine. Call
// InstantiateBatch. This wrapper remains only for the benchmark module's
// traced replay (bench/trace.go).
func (p *Portfolio) InstantiateBatchWorkers(queries []DimQuery, workers int) []BatchResult {
	return p.InstantiateBatch(queries)
}
