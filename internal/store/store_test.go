package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mps/internal/core"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// testCircuit returns a two-block circuit and a structure with count
// disjoint placements on it.
func testCircuit(t testing.TB, count int) (*netlist.Circuit, *core.Structure) {
	t.Helper()
	b := netlist.NewBuilder("storetest")
	b.Block("a", 1, 4*count+58, 1, 50)
	b.Block("b", 1, 4*count+58, 1, 50)
	b.Net("n", 1, netlist.P("a"), netlist.P("b"))
	c := b.MustBuild()
	s := core.NewStructure(c, geom.NewRect(0, 0, 8*count+200, 8*count+200))
	for i := 0; i < count; i++ {
		lo := 4*i + 1
		p := &placement.Placement{
			ID: -1,
			X:  []int{0, 4*count + 100}, Y: []int{0, 60},
			WLo: []int{lo, 1}, WHi: []int{lo + 3, 50},
			HLo: []int{1, 1}, HHi: []int{50, 50},
			AvgCost: float64(i), BestCost: float64(i) / 2,
		}
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return c, s
}

func meta(key string) Meta {
	return Meta{Key: key, Circuit: "storetest", Seed: 1, Options: `{"circuit":"storetest"}`}
}

func TestPutGetStatListDelete(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, s := testCircuit(t, 10)

	put, err := d.Put(meta("k1"), s)
	if err != nil {
		t.Fatal(err)
	}
	if put.Bytes <= 0 || put.File == "" || put.Created.IsZero() {
		t.Fatalf("Put did not fill meta: %+v", put)
	}
	if put.Placements != s.NumPlacements() {
		t.Fatalf("Put recorded %d placements, want %d", put.Placements, s.NumPlacements())
	}

	got, gotMeta, err := d.Get("k1", c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPlacements() != s.NumPlacements() {
		t.Fatalf("loaded %d placements, want %d", got.NumPlacements(), s.NumPlacements())
	}
	if gotMeta.Key != "k1" || gotMeta.Bytes != put.Bytes {
		t.Fatalf("Get meta %+v does not match Put meta %+v", gotMeta, put)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Stat("k1"); !ok {
		t.Error("Stat(k1) = false after Put")
	}
	if _, ok := d.Stat("nope"); ok {
		t.Error("Stat on absent key = true")
	}
	if _, _, err := d.Get("nope", c); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on absent key: %v, want ErrNotFound", err)
	}

	if n := d.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if err := d.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if n := d.Len(); n != 0 {
		t.Fatalf("Len after delete = %d, want 0", n)
	}
	if err := d.Delete("k1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v, want ErrNotFound", err)
	}
	// The structure file is gone from disk too, not just the manifest.
	if _, err := os.Stat(filepath.Join(dir, put.File)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("structure file survived Delete: %v", err)
	}
}

// TestReopen proves persistence across process lifetimes: a second Open of
// the same directory serves what the first one stored.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, s := testCircuit(t, 6)
	if _, err := d1.Put(meta("k1"), s); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Put(meta("k2"), s); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := d2.Len(); n != 2 {
		t.Fatalf("reopened store has %d entries, want 2", n)
	}
	got, _, err := d2.Get("k1", c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPlacements() != s.NumPlacements() {
		t.Fatalf("reopened structure has %d placements, want %d", got.NumPlacements(), s.NumPlacements())
	}
}

// TestOpenDropsMissingFiles: manifest rows whose structure file vanished
// are dropped rather than served as phantom entries.
func TestOpenDropsMissingFiles(t *testing.T) {
	dir := t.TempDir()
	d1, _ := Open(dir)
	_, s := testCircuit(t, 4)
	put, err := d1.Put(meta("k1"), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Put(meta("k2"), s); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, put.File)); err != nil {
		t.Fatal(err)
	}
	// k1 and k2 share content but have distinct files.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Stat("k1"); ok {
		t.Error("entry with missing file survived Open")
	}
	if _, ok := d2.Stat("k2"); !ok {
		t.Error("entry with intact file was dropped")
	}
}

// TestOpenQuarantinesCorruptManifest: a manifest that does not parse is
// moved aside with its bytes kept, and Open carries on with an empty
// store that accepts writes and reopens cleanly. Later Opens neither
// re-quarantine nor sweep the moved file.
func TestOpenQuarantinesCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, s := testCircuit(t, 4)
	if _, err := d.Put(meta("k1"), s); err != nil {
		t.Fatal(err)
	}
	garbage := []byte(`{"version":1,"entries":[{"key":"k1"`)
	if err := os.WriteFile(filepath.Join(dir, manifestName), garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with a corrupt manifest: %v", err)
	}
	if d2.Len() != 0 || len(d2.Portfolios()) != 0 {
		t.Fatalf("quarantined store holds %d entries, %d portfolios; want none", d2.Len(), len(d2.Portfolios()))
	}
	q := d2.Quarantined()
	if q == "" || strings.HasPrefix(q, tmpPrefix) || strings.ContainsAny(q, "/\\") {
		t.Fatalf("Quarantined() = %q, want a plain file name outside the temp-file sweep", q)
	}
	kept, err := os.ReadFile(filepath.Join(dir, q))
	if err != nil || string(kept) != string(garbage) {
		t.Fatalf("quarantined file holds %q (err %v), want the corrupt manifest's bytes", kept, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt manifest still in place: %v", err)
	}

	if _, err := d2.Put(meta("k2"), s); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Quarantined() != "" || d3.Len() != 1 {
		t.Fatalf("reopen: quarantined %q, %d entries; want none and 1", d3.Quarantined(), d3.Len())
	}
	if _, _, err := d3.Get("k2", c); err != nil {
		t.Fatalf("entry written after the quarantine does not load: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, q)); err != nil {
		t.Fatalf("quarantined file did not survive a reopen: %v", err)
	}
}

// TestOpenSweepsTempFiles: crash leftovers from interrupted atomic writes
// are removed on Open.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"12345")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
}

// crashedPut leaves what a Put that crashed between its rename and its
// manifest write leaves: key's structure file in place, named by no row.
// It returns the file's path.
func crashedPut(t *testing.T, dir, key string, s *core.Structure) string {
	t.Helper()
	path := filepath.Join(dir, fileName(key))
	if _, err := WriteFileAtomic(path, s.SaveBinaryCompiled); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenSweepsOrphanedStructureFiles: a structure file no manifest row
// names is removed on Open, while the named entry still loads and files
// that are not structure files stay.
func TestOpenSweepsOrphanedStructureFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, s := testCircuit(t, 4)
	if _, err := d.Put(meta("k1"), s); err != nil {
		t.Fatal(err)
	}
	orphan := crashedPut(t, dir, "k2", s)
	other := filepath.Join(dir, "notes.mps")
	if err := os.WriteFile(other, []byte("not a structure file"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned structure file survived Open: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("a file outside the structure-file pattern was swept: %v", err)
	}
	if _, _, err := d2.Get("k1", c); err != nil {
		t.Fatalf("named entry does not load after the sweep: %v", err)
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened store holds %d entries, want 1", d2.Len())
	}
}

// TestOpenKeepsFilesBesideQuarantinedManifest: while a quarantined
// manifest lies in the directory, Open sweeps no structure file — its rows
// may name them — neither when it quarantines nor on a later Open whose
// manifest parses.
func TestOpenKeepsFilesBesideQuarantinedManifest(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, s := testCircuit(t, 4)
	put, err := d.Put(meta("k1"), s)
	if err != nil {
		t.Fatal(err)
	}
	orphan := crashedPut(t, dir, "k2", s)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"entries":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	files := []string{filepath.Join(dir, put.File), orphan}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Quarantined() == "" {
		t.Fatal("corrupt manifest was not quarantined")
	}
	if _, err := d2.Put(meta("k3"), s); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("structure file %s did not survive beside a quarantined manifest: %v", filepath.Base(f), err)
		}
	}
}

// TestGetCorruptFile: a flipped byte in the structure file surfaces as a
// load error (the v2 CRC), never as silent wrong data.
func TestGetCorruptFile(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(dir)
	c, s := testCircuit(t, 5)
	put, err := d.Put(meta("k1"), s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, put.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get("k1", c); err == nil {
		t.Fatal("corrupt structure file loaded without error")
	}
}

// TestList is newest-first with a deterministic tie-break.
func TestList(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(dir)
	_, s := testCircuit(t, 3)
	for i := 0; i < 3; i++ {
		m := meta(fmt.Sprintf("k%d", i))
		m.Created = m.Created.Add(0) // zero: Put stamps now()
		if _, err := d.Put(m, s); err != nil {
			t.Fatal(err)
		}
	}
	ls := d.List()
	if len(ls) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].Created.After(ls[i-1].Created) {
			t.Fatalf("List not newest-first: %v before %v", ls[i-1].Created, ls[i].Created)
		}
	}
}

// TestWriteFileAtomicFailureKeepsOld: a failing writer must leave the
// previous file contents untouched and no temp litter behind.
func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "original")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-written garbage")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic swallowed the writer error: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "original" {
		t.Fatalf("failed write clobbered the file: %q", data)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("temp file %s left behind after failed write", e.Name())
		}
	}
}

// TestConcurrentPutGet hammers one Dir from many goroutines; run with
// -race this is the store's concurrency contract.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	d, _ := Open(dir)
	c, s := testCircuit(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%2) // overlap keys across goroutines
			for i := 0; i < 5; i++ {
				if _, err := d.Put(meta(key), s); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := d.Get(key, c); err != nil {
					t.Error(err)
					return
				}
				d.List()
				d.Stat(key)
			}
		}(g)
	}
	wg.Wait()
	if n := d.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}
