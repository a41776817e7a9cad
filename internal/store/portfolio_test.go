package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// putMembers persists count member structures under keys m0..m{count-1}
// and returns the keys.
func putMembers(t *testing.T, d *Dir, count int) []string {
	t.Helper()
	_, s := testCircuit(t, 6)
	keys := make([]string, count)
	for i := range keys {
		keys[i] = "m" + string(rune('0'+i))
		if _, err := d.Put(meta(keys[i]), s); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestPortfolioRecordGetList(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 3)

	// Recording before members exist must fail.
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "p-bad", Members: []string{"absent"}}); err == nil {
		t.Error("RecordPortfolio with an unpersisted member succeeded, want error")
	}
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "", Members: members}); err == nil {
		t.Error("RecordPortfolio with an empty key succeeded, want error")
	}
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "p-empty"}); err == nil {
		t.Error("RecordPortfolio with no members succeeded, want error")
	}

	rec, err := d.RecordPortfolio(PortfolioMeta{
		Key: "p1", Circuit: "storetest", Seed: 1,
		Options: `{"circuit":"storetest","portfolio":3}`, Members: members,
		Placements: 18, Coverage: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Created.IsZero() || rec.K() != 3 {
		t.Fatalf("RecordPortfolio did not complete the row: %+v", rec)
	}

	got, ok := d.GetPortfolio("p1")
	if !ok || got.Key != "p1" || got.K() != 3 || got.Coverage != 0.25 {
		t.Fatalf("GetPortfolio = %+v, %v", got, ok)
	}
	if _, ok := d.GetPortfolio("absent"); ok {
		t.Error("GetPortfolio found an absent key")
	}
	if list := d.Portfolios(); len(list) != 1 || list[0].Key != "p1" {
		t.Fatalf("Portfolios = %+v, want the one recorded row", list)
	}
}

// TestPortfolioSurvivesReopen checks grouping rows round-trip through the
// manifest, and that a row whose member vanished is dropped on Open.
func TestPortfolioSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 3)
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "p1", Circuit: "storetest", Members: members}); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.GetPortfolio("p1")
	if !ok || got.K() != 3 {
		t.Fatalf("reopened store lost the portfolio row: %+v, %v", got, ok)
	}

	// Deleting a member makes the portfolio unservable: the row must go
	// with it, both in memory and across a reopen.
	if err := d2.Delete("m1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.GetPortfolio("p1"); ok {
		t.Error("portfolio row survived deleting one of its members")
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d3.GetPortfolio("p1"); ok {
		t.Error("reopened store resurrected a portfolio with a missing member")
	}
}

// TestOpenDropsCorruptPortfolioRows hand-writes manifests with malformed
// portfolio sections: Open must keep the servable rows and drop the rest,
// never fail or panic.
func TestOpenDropsCorruptPortfolioRows(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 2)
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "good", Members: members}); err != nil {
		t.Fatal(err)
	}

	// Splice corrupt rows into the manifest alongside the good one.
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Portfolios = append(m.Portfolios,
		PortfolioMeta{Key: "", Members: members},                            // no key
		PortfolioMeta{Key: "no-members"},                                    // no members
		PortfolioMeta{Key: "empty-member", Members: []string{""}},           // empty member key
		PortfolioMeta{Key: "dangling", Members: []string{"m0", "vanished"}}, // missing member
		PortfolioMeta{Key: "good2", Members: members, Created: time.Now()},  // servable
	)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.GetPortfolio("good"); !ok {
		t.Error("Open dropped a servable portfolio row")
	}
	if _, ok := d2.GetPortfolio("good2"); !ok {
		t.Error("Open dropped the second servable portfolio row")
	}
	for _, key := range []string{"", "no-members", "empty-member", "dangling"} {
		if _, ok := d2.GetPortfolio(key); ok {
			t.Errorf("Open kept corrupt portfolio row %q", key)
		}
	}
}

// FuzzLoadPortfolio feeds arbitrary bytes to the manifest reader — the
// portfolio rows included — and exercises the portfolio accessors on
// whatever Open accepts. The invariant mirrors FuzzLoad's: Open either
// errors or yields a store whose every structure row names its own file
// and whose every portfolio row is servable (all member keys resolve to
// live entries); it never panics.
func FuzzLoadPortfolio(f *testing.F) {
	// Seed with a real manifest carrying entries and a portfolio row.
	seedDir := f.TempDir()
	d, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	_, s := testCircuit(f, 4)
	for _, key := range []string{"m0", "m1"} {
		if _, err := d.Put(meta(key), s); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := d.RecordPortfolio(PortfolioMeta{Key: "p", Members: []string{"m0", "m1"}}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(seedDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"version":1,"portfolios":[{"key":"p","members":["a"]}]}`))
	f.Add([]byte(`{"version":1,"entries":null,"portfolios":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"entries":[{"key":"m0","file":"manifest.json"},{"key":"x","file":".."}]}`))

	// Structure files referenced by fuzzed manifests: keep the seed
	// entries' files around so rows can resolve.
	files, err := filepath.Glob(filepath.Join(seedDir, "*.mps"))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, src := range files {
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		for _, e := range d.List() {
			if e.File != fileName(e.Key) {
				t.Fatalf("Open kept row %q naming file %q, not its own %q", e.Key, e.File, fileName(e.Key))
			}
		}
		for _, p := range d.Portfolios() {
			if p.Key == "" || p.K() == 0 {
				t.Fatalf("Open accepted an unservable portfolio row %+v", p)
			}
			got, ok := d.GetPortfolio(p.Key)
			if !ok || got.Key != p.Key {
				t.Fatalf("listed portfolio %q not gettable", p.Key)
			}
			for _, member := range p.Members {
				if _, ok := d.Stat(member); !ok {
					t.Fatalf("portfolio %q member %q has no entry", p.Key, member)
				}
			}
		}
	})
}
