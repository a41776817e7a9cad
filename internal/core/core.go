// Package core implements the multi-placement structure — the paper's
// primary contribution (§2). A Structure maps any block-dimension vector
// V = (w_1,h_1, …, w_N,h_N) to at most one stored placement via 2N interval
// rows (Fig. 3): a width row and a height row per block, each an ascending
// non-overlapping interval list carrying placement indices.
//
// A Structure keeps each stored placement once: its 2N validity intervals
// only in one flat box table, four values per block in ID order, and its
// anchors and costs in an immutable record shared by every piece overlap
// resolution cut from the same candidate or stored placement. Generation
// edits only the box table: overlap resolution finds conflicts by scanning
// it and cuts boxes, and storing, shrinking, deleting and renumbering
// rewrite entries. The rows are derived from it, never edited: Compile
// sweeps it into the flat query index (compiled.go), the one index queries
// are served from. Get and Query hand out copies built from record and
// box; Query and Instantiate scan the box table, the brute-force reference
// the index is tested against, not a second index.
//
// The defining invariant is eq. 5, |M(V)| <= 1 for every V, enforced by
// keeping the stored placements' 2N-dimensional dimension boxes pairwise
// disjoint (see resolve.go). Queries on covered space return exactly one
// placement; uncovered space falls back to a caller-provided backup
// template (§3.1.4: "the remaining uncovered percentage of the space would
// then be mapped to a template-like placement").
//
// # Concurrency
//
// A Structure follows the paper's generate-once, query-many life cycle
// (Fig. 1): generation (Insert, Compact, Renumber, SetBackup) mutates the
// structure and must be externally serialized — the explorer already does
// this for its parallel chains — while the query path (LookupLinear, Get,
// Query, Instantiate, Coverage and friends) is safe for any number of
// concurrent readers once generation has finished. Queries share no
// mutable state: they only read the records and the box table, and
// results are copied out of the structure. Installed Backup implementations must
// themselves be safe for concurrent Place calls (both shipped backups,
// template and seqpair, are stateless after construction).
//
// Compile follows the same life cycle: it builds the rows as a
// CompiledStructure (compiled.go) — the serving hot path — once
// generation is done, publishes the result on the structure through an
// atomic pointer (concurrent first callers may each build an equal copy),
// and any mutation drops it. The compiled index is likewise safe for
// unlimited concurrent readers.
package core
