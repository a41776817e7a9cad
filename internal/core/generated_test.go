package core_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/explorer"
)

// TestGeneratedStructuresMatchReferences runs the generation fast paths
// against their references on structures the explorer generated: Coverage
// against the from-scratch recomputation after generation, Compact,
// Renumber and Load, and Renumber against removing and re-inserting every
// moved placement.
func TestGeneratedStructuresMatchReferences(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			generate := func() *core.Structure {
				s, _, err := explorer.Generate(c, explorer.Config{
					Seed:          seed,
					MaxIterations: 60,
					BDIO:          bdio.Config{Steps: 80},
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			same := func(s *core.Structure, what string) {
				t.Helper()
				if got, want := s.Coverage(), core.CoverageFromScratch(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d %s: Coverage = %v, from scratch %v", name, seed, what, got, want)
				}
			}
			want, got := generate(), generate()
			same(got, "after generation")
			want.Compact()
			got.Compact()
			same(got, "after Compact")
			if !core.HasIDHoles(got) {
				t.Fatalf("%s seed %d: generated structure has no ID holes to renumber", name, seed)
			}

			core.RenumberRemoveInsert(want)
			got.Renumber()
			same(got, "after Renumber")
			if !reflect.DeepEqual(core.RowSnapshots(got), core.RowSnapshots(want)) {
				t.Fatalf("%s seed %d: rows differ from the remove+insert reference", name, seed)
			}
			var gotV3, wantV3 bytes.Buffer
			if err := got.SaveBinaryCompiled(&gotV3); err != nil {
				t.Fatal(err)
			}
			if err := want.SaveBinaryCompiled(&wantV3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotV3.Bytes(), wantV3.Bytes()) {
				t.Fatalf("%s seed %d: v3 bytes differ from the remove+insert reference", name, seed)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}

			loaded, err := core.Load(&gotV3, c)
			if err != nil {
				t.Fatal(err)
			}
			same(loaded, "after Load")
			if math.Float64bits(loaded.Coverage()) != math.Float64bits(got.Coverage()) {
				t.Fatalf("%s seed %d: loaded Coverage %v, saved %v", name, seed, loaded.Coverage(), got.Coverage())
			}
		}
	}
}
