// Package store implements the disk-backed structure repository behind the
// paper's "generate once, instantiate forever" premise (Fig. 1): generated
// multi-placement structures outlive the process that paid for them. A Dir
// holds one structure file per canonical (circuit, seed, options) key —
// written atomically in the v2 binary format (internal/core/codec.go; v3
// files earlier versions wrote still load) — plus a rewritable JSON
// manifest recording circuit, seed, options, placement count, byte size,
// and creation time.
//
// Structure portfolios persist as grouping rows in the same manifest
// (PortfolioMeta): K member keys in routing order plus the portfolio's
// canonical spec. Members are ordinary entries — shared with identical
// single-structure specs, never copied — so recording a portfolio costs
// one manifest rewrite, and Open drops any grouping row whose members are
// no longer all servable.
//
// internal/serve uses a Dir as a write-through layer under its LRU cache:
// finished generations are persisted in the background, cache misses
// consult the store before paying for an annealing run, and mpsd
// warm-starts from the newest entries (and portfolio groupings) at boot.
//
// A Dir is safe for concurrent use. Corrupt files are detected on Get (the
// v2 checksum plus core.Load's semantic validation) and reported, never
// silently repaired. A manifest that does not parse is moved aside at
// Open, bytes intact, and reported through Quarantined.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mps/internal/core"
	"mps/internal/netlist"
)

// ErrNotFound reports a key with no persisted structure.
var ErrNotFound = errors.New("store: structure not found")

// manifestName is the index file inside a store directory.
const manifestName = "manifest.json"

// Meta is one manifest row: everything a server needs to list or reload a
// persisted structure without opening its file.
type Meta struct {
	// Key is the canonical (circuit, seed, options) cache key.
	Key string `json:"key"`
	// Circuit and Seed identify the generation inputs; Options carries the
	// caller's full canonical spec (serve stores the normalized
	// GenerateSpec as JSON) so a restarted server can rebuild cache
	// entries from the manifest alone.
	Circuit string `json:"circuit"`
	Seed    int64  `json:"seed"`
	Options string `json:"options,omitempty"`
	// Placements and Coverage snapshot the structure at persist time.
	Placements int     `json:"placements"`
	Coverage   float64 `json:"coverage,omitempty"`
	// Bytes is the structure file's size; Created its persist time (UTC).
	Bytes   int64     `json:"bytes"`
	Created time.Time `json:"created"`
	// File is the structure's filename inside the store directory.
	File string `json:"file"`
}

// PortfolioMeta is one portfolio manifest row: a grouping of K member
// structures (each a regular manifest entry, persisted with the v2 codec)
// under the portfolio's own canonical key. Members are referenced by their
// entry keys — member files are shared with, and deduplicated against,
// identical single-structure entries rather than copied.
type PortfolioMeta struct {
	// Key is the canonical portfolio spec key.
	Key string `json:"key"`
	// Circuit and Seed identify the generation inputs; Options carries the
	// caller's full canonical portfolio spec (serve stores the normalized
	// GenerateSpec as JSON) so a restarted server can rebuild the
	// portfolio — member specs are derived from it, not stored.
	Circuit string `json:"circuit"`
	Seed    int64  `json:"seed"`
	Options string `json:"options,omitempty"`
	// Members lists the member structures' entry keys in routing order
	// (member 0 first — the order is part of the portfolio's semantics).
	Members []string `json:"members"`
	// MemberWeights records each member's generation weight vector as its
	// canonical key string (cost.Weights.Key), "" for members generated
	// under the default objective. Empty for weightless portfolios, else
	// length len(Members). It is a record for operators: nothing reads it
	// back, since Key already names every member's objective and routing
	// follows query weights.
	MemberWeights []string `json:"member_weights,omitempty"`
	// Placements and Coverage snapshot the portfolio at record time:
	// summed stored placements and the merged (union) covered fraction.
	Placements int     `json:"placements"`
	Coverage   float64 `json:"coverage,omitempty"`
	// Created is when the grouping row was recorded (UTC).
	Created time.Time `json:"created"`
}

// K returns the member count.
func (p PortfolioMeta) K() int { return len(p.Members) }

type manifest struct {
	Version    int             `json:"version"`
	Entries    []Meta          `json:"entries"`
	Portfolios []PortfolioMeta `json:"portfolios,omitempty"`
}

// Dir is a disk-backed structure repository rooted at one directory.
type Dir struct {
	root string

	// mu guards entries and portfolios and is held only for map access,
	// never across disk I/O, so reads (Stat/List — the serve
	// read-through's first stop) never stall behind an fsyncing writer.
	mu         sync.Mutex
	entries    map[string]Meta
	portfolios map[string]PortfolioMeta

	// writeMu serializes manifest rewrites; the entries snapshot is taken
	// after acquiring it, so the last manifest written always reflects
	// every earlier mutation (no lost updates between concurrent Puts).
	writeMu sync.Mutex

	// quarantined names the file Open moved an unparsable manifest to
	// ("" when it found none).
	quarantined string
}

// Open opens (creating if needed) a store directory and loads its
// manifest. Manifest rows whose structure file has gone missing are
// dropped, and temp files left by crashed writers are swept, so Open
// always yields a servable view of what is actually on disk. When the
// manifest parses, structure files no kept row names — left by a Put that
// crashed between its rename and its manifest write — are swept too,
// unless a quarantined manifest lies beside it, whose rows may name them.
// A manifest that does not parse is renamed aside with its bytes kept
// (see Quarantined) and the store opens empty, so one corrupt file cannot
// keep a server from booting.
func Open(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Dir{root: root, entries: map[string]Meta{}, portfolios: map[string]PortfolioMeta{}}
	if stale, err := filepath.Glob(filepath.Join(root, tmpPrefix+"*")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		name, err := Quarantine(root, manifestName)
		if err != nil {
			return nil, fmt.Errorf("store: quarantining corrupt manifest: %w", err)
		}
		d.quarantined = name
		return d, nil
	}
	for _, e := range m.Entries {
		if e.Key == "" || e.File == "" || strings.ContainsAny(e.File, "/\\") {
			continue // malformed or path-escaping row
		}
		if _, err := os.Stat(filepath.Join(root, e.File)); err != nil {
			continue // structure file gone; drop the row
		}
		d.entries[e.Key] = e
	}
	for _, p := range m.Portfolios {
		if !d.portfolioServable(p) {
			continue // malformed row, or a member entry is gone
		}
		d.portfolios[p.Key] = p
	}
	d.sweepOrphans()
	return d, nil
}

// sweepOrphans removes the structure files no entry names. It sweeps
// nothing while a quarantined manifest (manifestName.corrupt-*) is in the
// directory: an operator repairing it may need the files its rows name.
func (d *Dir) sweepOrphans() {
	if q, err := HasQuarantined(d.root, manifestName); err != nil || q {
		return
	}
	named := make(map[string]bool, len(d.entries))
	for _, e := range d.entries {
		named[e.File] = true
	}
	files, _ := filepath.Glob(filepath.Join(d.root, "*.mps"))
	for _, f := range files {
		if name := filepath.Base(f); isStructureFile(name) && !named[name] {
			os.Remove(f)
		}
	}
}

// portfolioServable reports whether a portfolio row is well-formed and all
// its members have live entries — the condition for Open to keep it and
// for RecordPortfolio to accept it.
func (d *Dir) portfolioServable(p PortfolioMeta) bool {
	if p.Key == "" || len(p.Members) == 0 {
		return false
	}
	for _, key := range p.Members {
		if key == "" {
			return false
		}
		if _, ok := d.entries[key]; !ok {
			return false
		}
	}
	return true
}

// Root returns the directory the store lives in.
func (d *Dir) Root() string { return d.root }

// Quarantined returns the name, inside Root, of the file Open moved an
// unparsable manifest to, or "" when the manifest parsed (or was absent).
func (d *Dir) Quarantined() string { return d.quarantined }

// Len returns the number of persisted structures.
func (d *Dir) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Stats is a scrape-time snapshot of the store's footprint, shaped for
// gauge export.
type Stats struct {
	// Entries and Portfolios are manifest row counts.
	Entries    int
	Portfolios int
	// Bytes is the summed size of all persisted structure files, from the
	// manifest rows (no disk walk).
	Bytes int64
}

// Stats returns the current footprint. It reads only the in-memory
// manifest maps, so it is cheap enough for every metrics scrape.
func (d *Dir) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{Entries: len(d.entries), Portfolios: len(d.portfolios)}
	for _, e := range d.entries {
		st.Bytes += e.Bytes
	}
	return st
}

// Put persists the structure under meta.Key, overwriting any previous
// entry for that key. The structure file is written atomically before the
// manifest row lands, so a crash between the two leaves at worst an
// unreferenced file, which the next Open sweeps. Meta's File,
// Bytes, and (when zero) Created and Placements fields are filled in; the
// completed row is returned.
func (d *Dir) Put(meta Meta, s *core.Structure) (Meta, error) {
	if meta.Key == "" {
		return Meta{}, fmt.Errorf("store: empty key")
	}
	if s == nil {
		return Meta{}, fmt.Errorf("store: nil structure for key %q", meta.Key)
	}
	meta.File = fileName(meta.Key)
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	if meta.Placements == 0 {
		meta.Placements = s.NumPlacements()
	}

	// The structure write happens outside the entries lock: concurrent
	// Puts to one key land on the same filename, where the atomic rename
	// makes the race benign (one complete file wins). Structures persist
	// in the v2 format, placements only: whoever loads the file compiles
	// the query index off its request path, which costs less than reading
	// and checking persisted tables would.
	n, err := WriteFileAtomic(filepath.Join(d.root, meta.File), s.SaveBinary)
	if err != nil {
		return Meta{}, fmt.Errorf("store: %w", err)
	}
	meta.Bytes = n
	d.mu.Lock()
	d.entries[meta.Key] = meta
	d.mu.Unlock()
	if err := d.saveManifest(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// Get loads the persisted structure for key. The circuit must be the
// topology the structure was generated for; decoding and validation go
// through core.Load, so checksum or semantic corruption surfaces as an
// error here rather than as wrong placements later.
func (d *Dir) Get(key string, c *netlist.Circuit) (*core.Structure, Meta, error) {
	meta, ok := d.Stat(key)
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	f, err := os.Open(filepath.Join(d.root, meta.File))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s, err := core.Load(f, c)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: loading %s: %w", meta.File, err)
	}
	return s, meta, nil
}

// Stat returns the manifest row for key without touching the structure
// file.
func (d *Dir) Stat(key string) (Meta, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.entries[key]
	return meta, ok
}

// List returns all manifest rows, newest first (ties broken by key so the
// order is deterministic).
func (d *Dir) List() []Meta {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Meta, 0, len(d.entries))
	for _, m := range d.entries {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ReadFile returns the raw persisted bytes for key's structure file plus
// its manifest row — the transfer primitive behind cluster rebalance and
// peer fetches, where the structure file moves between nodes verbatim (the
// receiver revalidates through core.Load, so no trust rides on the
// bytes).
func (d *Dir) ReadFile(key string) ([]byte, Meta, error) {
	meta, ok := d.Stat(key)
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	data, err := os.ReadFile(filepath.Join(d.root, meta.File))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: %w", err)
	}
	return data, meta, nil
}

// Delete removes key's structure file and manifest row. Portfolio rows
// referencing the deleted entry as a member become unservable and are
// dropped in the same manifest rewrite. Deleting an absent key returns
// ErrNotFound.
func (d *Dir) Delete(key string) error {
	d.mu.Lock()
	meta, ok := d.entries[key]
	if ok {
		delete(d.entries, key)
		for pkey, p := range d.portfolios {
			for _, member := range p.Members {
				if member == key {
					delete(d.portfolios, pkey)
					break
				}
			}
		}
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err := os.Remove(filepath.Join(d.root, meta.File)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return d.saveManifest()
}

// RecordPortfolio records (or overwrites) a portfolio grouping row. The
// member structures must already be persisted — every member key needs a
// live entry, so a recorded portfolio is always servable. Created is
// filled in when zero; the completed row is returned.
func (d *Dir) RecordPortfolio(meta PortfolioMeta) (PortfolioMeta, error) {
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	d.mu.Lock()
	if !d.portfolioServable(meta) {
		d.mu.Unlock()
		return PortfolioMeta{}, fmt.Errorf("store: portfolio %q references members without entries (persist members first)", meta.Key)
	}
	d.portfolios[meta.Key] = meta
	d.mu.Unlock()
	if err := d.saveManifest(); err != nil {
		return PortfolioMeta{}, err
	}
	return meta, nil
}

// GetPortfolio returns the portfolio row for key. Loading the member
// structures is the caller's business (via Get with each member key), so
// the caller controls the circuit value and failure handling per member.
func (d *Dir) GetPortfolio(key string) (PortfolioMeta, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.portfolios[key]
	return meta, ok
}

// Portfolios returns all portfolio rows, newest first (ties broken by key
// so the order is deterministic).
func (d *Dir) Portfolios() []PortfolioMeta {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PortfolioMeta, 0, len(d.portfolios))
	for _, p := range d.portfolios {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// DeletePortfolio removes a portfolio grouping row. Member structures are
// left in place — they are shared with (and reachable as) single-structure
// entries. Deleting an absent key returns ErrNotFound.
func (d *Dir) DeletePortfolio(key string) error {
	d.mu.Lock()
	_, ok := d.portfolios[key]
	if ok {
		delete(d.portfolios, key)
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return d.saveManifest()
}

// saveManifest rewrites the manifest atomically. Writers are serialized
// by writeMu and snapshot entries after acquiring it, so whichever write
// lands last carries every mutation that preceded it.
func (d *Dir) saveManifest() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	m := manifest{Version: 1, Entries: make([]Meta, 0, len(d.entries))}
	for _, e := range d.entries {
		m.Entries = append(m.Entries, e)
	}
	for _, p := range d.portfolios {
		m.Portfolios = append(m.Portfolios, p)
	}
	d.mu.Unlock()
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Key < m.Entries[j].Key })
	sort.Slice(m.Portfolios, func(i, j int) bool { return m.Portfolios[i].Key < m.Portfolios[j].Key })
	_, err := WriteFileAtomic(filepath.Join(d.root, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// fileName derives a filesystem-safe, collision-resistant filename from a
// cache key (keys contain '|' and '=' and can exceed name length limits).
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8]) + structureExt
}

const structureExt = ".mps"

// isStructureFile reports whether name has fileName's shape: 16 lowercase
// hex digits and the structure extension.
func isStructureFile(name string) bool {
	stem, ok := strings.CutSuffix(name, structureExt)
	if !ok || len(stem) != 16 {
		return false
	}
	for _, r := range stem {
		if !('0' <= r && r <= '9' || 'a' <= r && r <= 'f') {
			return false
		}
	}
	return true
}
