// Package mps is the public facade of the multi-placement-structure
// library, a reproduction of "Multi-Placement Structures for Fast and
// Optimized Placement in Analog Circuit Synthesis" (Badaoui & Vemuri,
// DATE 2005).
//
// The workflow mirrors the paper's Figure 1:
//
//	// One-time generation for a circuit topology (Fig. 1a).
//	circuit, _ := mps.Benchmark("TwoStageOpamp")
//	out, _ := mps.Run(ctx, mps.Request{Circuit: circuit, Options: mps.Options{Seed: 1}})
//
//	// Fast placement instantiation inside a sizing loop (Fig. 1b).
//	res, _ := out.Structure.Instantiate(widths, heights)
//
// Run's default backend is the paper's nested simulated annealing
// (Placement Explorer outside, Block Dimensions-Interval Optimizer inside);
// Run installs a slicing-tree template as the backup for queries in
// uncovered dimension space. The returned structure answers any in-bounds
// dimension vector with exactly one placement.
package mps

import (
	"fmt"
	"os"

	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/explorer"
	"mps/internal/netlist"
	"mps/internal/seqpair"
	"mps/internal/store"
	"mps/internal/template"
)

// Circuit re-exports the netlist circuit type used throughout the API.
type Circuit = netlist.Circuit

// Structure is a generated multi-placement structure bound to its circuit.
type Structure struct {
	*core.Structure
}

// CompiledStructure re-exports the flat query index type so callers can
// name what Compiled returns.
type CompiledStructure = core.CompiledStructure

// Compiled returns the structure's compiled query index — its 2N interval
// rows flattened into sorted int32 breakpoint and placement-id tables with
// binary-search lookup and zero allocations per covered query. The index
// is built lazily on first use and cached (structures loaded from legacy
// v3 files arrive with it built), so every query path on the facade —
// Instantiate, InstantiateBatch, the mpsd handlers — pays compile cost at
// most once per structure.
func (s *Structure) Compiled() *CompiledStructure {
	return core.Compile(s.Structure)
}

// Instantiate answers a placement request through the compiled query
// index, compiling it on first use. Results are identical to those of the
// embedded core.Structure's Instantiate, a brute-force scan over the
// stored placements kept as the reference the tests check this answer
// against.
func (s *Structure) Instantiate(ws, hs []int) (Result, error) {
	return s.Compiled().Instantiate(ws, hs)
}

// Result re-exports the instantiation result type.
type Result = core.Result

// Stats re-exports generation statistics.
type Stats = explorer.Stats

// Progress re-exports the per-iteration generation progress snapshot
// delivered to Options.Progress (chain, iteration, stored placements,
// exact coverage so far).
type Progress = explorer.Progress

// Options tunes Run. The zero value is a balanced default; Effort
// presets scale the annealing budgets.
type Options struct {
	// Seed drives all randomness. Equal seeds give identical structures
	// (with Chains == 1).
	Seed int64
	// Iterations is the Placement Explorer budget (outer SA steps).
	// 0 uses the Effort preset.
	Iterations int
	// BDIOSteps is the inner-annealer budget per explored placement.
	// 0 uses the Effort preset.
	BDIOSteps int
	// Effort selects preset budgets when Iterations/BDIOSteps are 0.
	Effort Effort
	// Chains runs parallel explorer chains feeding one structure.
	Chains int
	// Evaluator overrides the default wire-length + area cost.
	Evaluator cost.Evaluator
	// MaxPlacements stops generation early at this structure size (0 = off).
	MaxPlacements int
	// TargetCoverage stops generation at this exact volume coverage
	// (0 = off; practical only for small circuits).
	TargetCoverage float64
	// Backup selects the instantiator for uncovered dimension regions.
	Backup BackupKind
	// Progress observes generation, once per explorer iteration. Called
	// under the structure lock; keep it fast.
	Progress func(Progress)
}

// BackupKind selects the uncovered-space fallback installed by Run.
type BackupKind int

const (
	// BackupSlicingTree is the balanced slicing-tree template (default) —
	// the paper's "template-like placement" for uncovered space.
	BackupSlicingTree BackupKind = iota
	// BackupSequencePair uses a deterministic sequence-pair packing, which
	// compacts via longest paths and typically wastes less area than the
	// balanced tree.
	BackupSequencePair
)

// Effort presets the annealing budgets.
type Effort int

const (
	// EffortBalanced is the default: minutes-scale generation quality on
	// laptop hardware.
	EffortBalanced Effort = iota
	// EffortQuick is for tests and demos: seconds-scale generation.
	EffortQuick
	// EffortThorough approaches the paper's hours-scale budgets.
	EffortThorough
)

// Budgets resolves the annealing budgets the options imply: explicit
// Iterations/BDIOSteps when non-zero, else the Effort preset. Exposed so
// callers that cache structures by options (e.g. internal/serve) can
// canonicalize equivalent option sets to one key.
func (o Options) Budgets() (iters, bdioSteps int) {
	iters, bdioSteps = o.Iterations, o.BDIOSteps
	if iters == 0 {
		switch o.Effort {
		case EffortQuick:
			iters = 60
		case EffortThorough:
			iters = 1500
		default:
			iters = 300
		}
	}
	if bdioSteps == 0 {
		switch o.Effort {
		case EffortQuick:
			bdioSteps = 80
		case EffortThorough:
			bdioSteps = 1000
		default:
			bdioSteps = 300
		}
	}
	return iters, bdioSteps
}

// Benchmark returns one of the paper's Table 1 circuits by name:
// circ01, circ02, circ06, TwoStageOpamp, SingleEndedOpamp, Mixer, circ08,
// tso-cascode, benchmark24.
func Benchmark(name string) (*Circuit, error) { return circuits.ByName(name) }

// BenchmarkNames returns all Table 1 circuit names in paper order.
func BenchmarkNames() []string { return circuits.Names() }

func newBackup(c *Circuit, kind BackupKind) core.Backup {
	if kind == BackupSequencePair {
		return seqpair.NewBackup(c)
	}
	return template.Balanced(c)
}

// SaveFile writes the structure to path in the v2 binary format, as the
// serving store writes it: the placements, from which LoadFile rebuilds
// the rows and the first query compiles the index. The write is
// crash-safe: content lands in a temp file in path's directory and is
// fsynced and renamed over path, so an interrupted save never truncates
// or tears an existing structure file.
func (s *Structure) SaveFile(path string) error {
	if _, err := store.WriteFileAtomic(path, s.SaveBinary); err != nil {
		return fmt.Errorf("mps: %w", err)
	}
	return nil
}

// LoadFile reads a structure previously saved for the given circuit — v2,
// or the legacy v3 and gob v1, sniffed from the file header — and
// re-installs the default template backup.
func LoadFile(path string, c *Circuit) (*Structure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mps: %w", err)
	}
	defer f.Close()
	s, err := core.Load(f, c)
	if err != nil {
		return nil, err
	}
	s.SetBackup(template.Balanced(c))
	return &Structure{s}, nil
}

// SetBackupKind installs the uncovered-space backup selected by kind,
// replacing any installed backup. It exists for callers that obtain a
// structure outside Run/LoadFile (e.g. the serving layer rehydrating
// from its disk store) and must re-attach the backup their spec named.
//
// Swapping the backup deliberately does not invalidate the cached
// CompiledStructure: the compiled index holds only the flattened interval
// rows and anchor tables — it never captures the backup. Every query path
// (the compiled index, InstantiateBatch and the embedded structure's
// reference scan) reads the backup through the structure at query time,
// so the very next uncovered query
// answers from the new backup while covered queries keep the prebuilt
// index. TestSetBackupKindReachesCompiledPaths pins this. Like SetBackup,
// the swap itself must not race in-flight queries — do it during setup,
// before the structure is shared.
func (s *Structure) SetBackupKind(kind BackupKind) {
	s.SetBackup(newBackup(s.Circuit(), kind))
}
