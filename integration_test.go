package mps

// End-to-end integration tests: the full Fig. 1 workflow (generate → save →
// load → layout-inclusive sizing) exercised through the public facade only.

import (
	"math/rand"
	"path/filepath"
	"testing"

	"mps/internal/cost"
	"mps/internal/modgen"
	"mps/internal/synth"
)

// TestFullWorkflowGenerateSaveLoadSynthesize walks the complete paper
// workflow on the two-stage opamp and checks every stage's contract.
func TestFullWorkflowGenerateSaveLoadSynthesize(t *testing.T) {
	circuit, err := Benchmark("TwoStageOpamp")
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 1a: one-time generation.
	s, genStats, err := generate(circuit, Options{Seed: 41, Effort: EffortQuick})
	if err != nil {
		t.Fatal(err)
	}
	if genStats.Iterations == 0 || s.NumPlacements() == 0 {
		t.Fatal("generation produced nothing")
	}

	// Persist and reload, as a synthesis tool would.
	path := filepath.Join(t.TempDir(), "tso.mps")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path, circuit)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 1b: sizing loop with the loaded structure as the placement
	// provider.
	sizer := modgen.DefaultSizer(circuit)
	provider := synth.ProviderFunc(func(ws, hs []int) ([]int, []int, error) {
		res, err := loaded.Instantiate(ws, hs)
		if err != nil {
			return nil, nil, err
		}
		return res.X, res.Y, nil
	})
	res, err := synth.Run(sizer, provider,
		synth.LayoutOnlyObjective(cost.DefaultWeights),
		loaded.Floorplan(), synth.Config{Steps: 120, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlaceErrs != 0 {
		t.Errorf("%d placement failures inside the loop", res.PlaceErrs)
	}
	if res.BestLayout == nil || res.BestCost >= 1e12 {
		t.Fatal("sizing loop found no valid point")
	}
	if res.BestCost > res.AnnealStats.InitCost {
		t.Errorf("sizing did not improve: best %g vs init %g",
			res.BestCost, res.AnnealStats.InitCost)
	}
	// Every placement the loop used must have been answered in bounded
	// time; the loop's own mean latency is the paper's usability claim.
	if res.AvgPlaceTime().Microseconds() > 1000 {
		t.Errorf("mean placement latency %v exceeds 1ms", res.AvgPlaceTime())
	}
}

// TestBackupKinds verifies both uncovered-space backups answer with legal
// layouts through the facade.
func TestBackupKinds(t *testing.T) {
	circuit, err := Benchmark("Mixer")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BackupKind{BackupSlicingTree, BackupSequencePair} {
		s, _, err := generate(circuit, Options{Seed: 1, Effort: EffortQuick, Backup: kind})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		sawBackup := false
		for trial := 0; trial < 200; trial++ {
			ws, hs := randomDims(circuit, rng)
			res, err := s.Instantiate(ws, hs)
			if err != nil {
				t.Fatalf("backup kind %d: %v", kind, err)
			}
			if res.FromBackup {
				sawBackup = true
			}
			for i := 0; i < circuit.N(); i++ {
				for j := i + 1; j < circuit.N(); j++ {
					if overlap(res.X[i], res.Y[i], ws[i], hs[i], res.X[j], res.Y[j], ws[j], hs[j]) {
						t.Fatalf("backup kind %d: overlapping layout", kind)
					}
				}
			}
		}
		if !sawBackup {
			t.Logf("backup kind %d: note — no query fell to backup", kind)
		}
	}
}

// TestSequencePairBackupCompacts compares the two backups' bounding-box
// area on identical dims: the sequence-pair packing must not be worse.
func TestSequencePairBackupCompacts(t *testing.T) {
	circuit, err := Benchmark("circ08")
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]int, circuit.N())
	hs := make([]int, circuit.N())
	for i, b := range circuit.Blocks {
		ws[i] = b.WMax
		hs[i] = b.HMax
	}
	area := func(kind BackupKind) int64 {
		s, _, err := generate(circuit, Options{
			Seed: 2, Effort: EffortQuick, Iterations: 1, BDIOSteps: 10, Backup: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Max dims are essentially never covered by a 1-iteration
		// structure; this exercises the backup.
		res, err := s.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		l := &cost.Layout{Circuit: circuit, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
		return cost.UsedArea(l)
	}
	tree := area(BackupSlicingTree)
	sp := area(BackupSequencePair)
	t.Logf("slicing-tree area %d, sequence-pair area %d", tree, sp)
	if sp > tree*3/2 {
		t.Errorf("sequence-pair backup area %d much worse than slicing tree %d", sp, tree)
	}
}
