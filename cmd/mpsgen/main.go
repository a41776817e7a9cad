// Command mpsgen performs the one-time generation of a multi-placement
// structure for a benchmark circuit (paper Fig. 1a) and saves it to disk
// for later use in synthesis.
//
// Usage:
//
//	mpsgen -circuit TwoStageOpamp -out tso.mps [-seed 1] [-effort quick|balanced|thorough]
//	       [-backend anneal|ga] [-iterations N] [-bdio-steps N] [-chains N] [-v]
//
// Structures are written atomically in the v2 binary format (checksummed,
// varint-packed). mpsquery/mpsinfo/mpsd load it, and the legacy v3 and
// gob v1 files earlier versions wrote, transparently.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mps"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpsgen: ")

	circuitName := flag.String("circuit", "", "benchmark circuit name (see -list)")
	out := flag.String("out", "", "output structure file")
	seed := flag.Int64("seed", 1, "random seed")
	effort := flag.String("effort", "balanced", "preset budget: quick, balanced, thorough")
	backend := flag.String("backend", mps.DefaultBackend,
		fmt.Sprintf("generation backend: %s", strings.Join(mps.Backends(), ", ")))
	iterations := flag.Int("iterations", 0, "explorer iterations (overrides effort preset)")
	bdioSteps := flag.Int("bdio-steps", 0, "inner-annealer steps (overrides effort preset)")
	chains := flag.Int("chains", 1, "parallel explorer chains")
	list := flag.Bool("list", false, "list benchmark circuits and exit")
	verbose := flag.Bool("v", false, "report progress during generation")
	flag.Parse()

	if *list {
		for _, n := range mps.BenchmarkNames() {
			fmt.Println(n)
		}
		return
	}
	if *circuitName == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	circuit, err := mps.Benchmark(*circuitName)
	if err != nil {
		log.Fatal(err)
	}
	opts := mps.Options{
		Seed:       *seed,
		Iterations: *iterations,
		BDIOSteps:  *bdioSteps,
		Chains:     *chains,
	}
	switch strings.ToLower(*effort) {
	case "quick":
		opts.Effort = mps.EffortQuick
	case "balanced":
		opts.Effort = mps.EffortBalanced
	case "thorough":
		opts.Effort = mps.EffortThorough
	default:
		log.Fatalf("unknown effort %q", *effort)
	}
	if *verbose {
		opts.Progress = func(p mps.Progress) {
			if p.Iteration%10 == 0 {
				log.Printf("chain %d iter %d: %d placements (%.3g coverage)",
					p.Chain, p.Iteration, p.Placements, p.Coverage)
			}
		}
	}

	res, err := mps.Run(context.Background(), mps.Request{
		Circuit: circuit,
		Options: opts,
		Backend: strings.ToLower(*backend),
	})
	if err != nil {
		log.Fatal(err)
	}
	s, stats := res.Structure, res.Stats[0]
	if err := s.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit:     %s (%d blocks, %d nets)\n", circuit.Name, circuit.N(), len(circuit.Nets))
	fmt.Printf("backend:     %s\n", strings.ToLower(*backend))
	fmt.Printf("placements:  %d\n", s.NumPlacements())
	fmt.Printf("iterations:  %d (stored %d, died %d, accepted %d)\n",
		stats.Iterations, stats.Stored, stats.CandidatesDied, stats.Accepted)
	fmt.Printf("coverage:    %.3g (exact volume fraction)\n", stats.FinalCoverage)
	fmt.Printf("duration:    %s\n", stats.Duration)
	fmt.Printf("saved to:    %s\n", *out)
}
