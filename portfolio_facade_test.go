package mps

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mps/internal/seqpair"
	"mps/internal/template"
)

// genQuickPortfolio builds a K=3 quick-effort portfolio for the circuit.
func genQuickPortfolio(t testing.TB, name string, seed int64) (*Portfolio, *Circuit) {
	t.Helper()
	c, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero member weights keep seed-only member diversity: member i is
	// the plain generation at PortfolioMemberSeed(seed, i).
	res, err := Run(context.Background(), Request{
		Circuit: c, Options: quickOpts(seed), K: 3, MemberWeights: make([]Weights, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("got %d member stats, want 3", len(res.Stats))
	}
	return res.Portfolio, c
}

// TestGeneratePortfolioMembersMatchSingles pins the dedup property behind
// the serving layer's fan-out: portfolio member i is bit-identical to the
// single structure generated with the derived member seed, so member jobs
// and single-structure jobs share cache and store entries.
func TestGeneratePortfolioMembersMatchSingles(t *testing.T) {
	p, c := genQuickPortfolio(t, "circ01", 42)
	for i := 0; i < p.K(); i++ {
		opts := quickOpts(PortfolioMemberSeed(42, i))
		single, _, err := generate(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Member(i).NumPlacements(), single.NumPlacements(); got != want {
			t.Errorf("member %d: %d placements, standalone generation stored %d", i, got, want)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for trial := 0; trial < 200; trial++ {
			ws, hs := randomDims(c, rng)
			a := p.Member(i).LookupLinear(ws, hs)
			b := single.LookupLinear(ws, hs)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("member %d diverges from standalone generation at %v/%v: %v vs %v", i, ws, hs, a, b)
			}
		}
	}
}

// TestPortfolioBatchMatchesSerial checks the portfolio batch path against
// query-at-a-time routing, including the Member bookkeeping.
func TestPortfolioBatchMatchesSerial(t *testing.T) {
	p, c := genQuickPortfolio(t, "TwoStageOpamp", 7)
	rng := rand.New(rand.NewSource(2))
	queries := make([]DimQuery, 300)
	for i := range queries {
		ws, hs := randomDims(c, rng)
		queries[i] = DimQuery{Ws: ws, Hs: hs}
	}
	batch := p.InstantiateBatch(queries)
	if len(batch) != len(queries) {
		t.Fatalf("%d results for %d queries", len(batch), len(queries))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		want, err := p.Instantiate(queries[i].Ws, queries[i].Hs)
		if err != nil {
			t.Fatal(err)
		}
		if br.Member != want.Member || br.PlacementID != want.PlacementID ||
			!reflect.DeepEqual(br.X, want.X) || !reflect.DeepEqual(br.Y, want.Y) {
			t.Fatalf("query %d: batch %+v, serial %+v", i, br, want)
		}
		if (br.Member < 0) != br.FromBackup {
			t.Fatalf("query %d: Member %d inconsistent with FromBackup %v", i, br.Member, br.FromBackup)
		}
	}
}

// TestPortfolioSaveLoadFiles round-trips a portfolio through member files
// and checks the loaded portfolio routes identically.
func TestPortfolioSaveLoadFiles(t *testing.T) {
	p, c := genQuickPortfolio(t, "circ01", 9)
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "m0.mps"),
		filepath.Join(dir, "m1.mps"),
		filepath.Join(dir, "m2.mps"),
	}
	if err := p.SaveFiles(paths[:2]); err == nil {
		t.Error("SaveFiles with too few paths succeeded, want error")
	}
	if err := p.SaveFiles(paths); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPortfolio(paths, c)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != p.K() || loaded.NumPlacements() != p.NumPlacements() {
		t.Fatalf("loaded K=%d placements=%d, want K=%d placements=%d",
			loaded.K(), loaded.NumPlacements(), p.K(), p.NumPlacements())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		ws, hs := randomDims(c, rng)
		a, err := p.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		// PlacementID is deliberately not compared: saving renumbers IDs
		// densely (generation leaves holes), but routing and anchors must
		// survive the round trip bit-exactly.
		if a.Member != b.Member || a.FromBackup != b.FromBackup ||
			!reflect.DeepEqual(a.X, b.X) || !reflect.DeepEqual(a.Y, b.Y) {
			t.Fatalf("loaded portfolio diverges at %v/%v:\noriginal %+v\nloaded   %+v", ws, hs, a, b)
		}
	}

	if _, err := LoadPortfolio(nil, c); err == nil {
		t.Error("LoadPortfolio with no paths succeeded, want error")
	}
	if _, err := LoadPortfolio([]string{filepath.Join(dir, "absent.mps")}, c); err == nil {
		t.Error("LoadPortfolio with a missing member file succeeded, want error")
	}
}

// TestSetBackupKindReachesCompiledPaths is the regression test for the
// suspected stale-backup bug: swapping the backup after the compiled
// index was built (and after batch queries warmed it) must be visible on
// every query path — single compiled queries and batches alike — without
// invalidating the index, because the index never captures the backup.
func TestSetBackupKindReachesCompiledPaths(t *testing.T) {
	c, err := Benchmark("TwoStageOpamp")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := generate(c, quickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Compiled() // build and cache the index with the tree backup installed

	// Find an uncovered query: it must exist (quick-effort coverage is a
	// tiny fraction of the space).
	rng := rand.New(rand.NewSource(4))
	var ws, hs []int
	for {
		ws, hs = randomDims(c, rng)
		res, err := s.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if res.FromBackup {
			break
		}
	}

	place := func(b interface {
		Place(ws, hs []int) (x, y []int, err error)
	}) ([]int, []int) {
		x, y, err := b.Place(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		return x, y
	}
	tmplX, tmplY := place(template.Balanced(c))
	spX, spY := place(seqpair.NewBackup(c))
	if reflect.DeepEqual(tmplX, spX) && reflect.DeepEqual(tmplY, spY) {
		t.Fatal("template and seqpair backups agree on the probe query; pick another seed")
	}

	check := func(wantX, wantY []int, backend string) {
		t.Helper()
		res, err := s.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FromBackup || !reflect.DeepEqual(res.X, wantX) || !reflect.DeepEqual(res.Y, wantY) {
			t.Fatalf("compiled Instantiate did not answer from the %s backup: %+v", backend, res)
		}
		batch := s.InstantiateBatch([]DimQuery{{Ws: ws, Hs: hs}})
		if batch[0].Err != nil {
			t.Fatal(batch[0].Err)
		}
		if !batch[0].FromBackup || !reflect.DeepEqual(batch[0].X, wantX) || !reflect.DeepEqual(batch[0].Y, wantY) {
			t.Fatalf("InstantiateBatch did not answer from the %s backup: %+v", backend, batch[0])
		}
	}

	check(tmplX, tmplY, "template")
	s.SetBackupKind(BackupSequencePair)
	check(spX, spY, "seqpair")
	s.SetBackupKind(BackupSlicingTree)
	check(tmplX, tmplY, "template")

	// The swaps must not have invalidated the compiled index: rebuilding
	// it would silently re-pay compile cost on every backup change.
	if s.Compiled() != cs {
		t.Error("SetBackupKind invalidated the compiled index; the index never captures the backup, so this is pure waste")
	}
}
