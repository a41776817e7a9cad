package mps_test

import (
	"context"
	"fmt"
	"log"

	"mps"
)

// ExampleRun demonstrates the paper's Fig. 1 workflow: one-time
// structure generation followed by fast placement instantiation.
func ExampleRun() {
	circuit, err := mps.Benchmark("circ01")
	if err != nil {
		log.Fatal(err)
	}
	out, err := mps.Run(context.Background(), mps.Request{
		Circuit: circuit,
		Options: mps.Options{Seed: 1, Effort: mps.EffortQuick},
	})
	if err != nil {
		log.Fatal(err)
	}
	s := out.Structure

	// Query with every block at its minimum dimensions.
	ws := make([]int, circuit.N())
	hs := make([]int, circuit.N())
	for i, b := range circuit.Blocks {
		ws[i] = b.WMin
		hs[i] = b.HMin
	}
	res, err := s.Instantiate(ws, hs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocks placed: %d\n", len(res.X))
	fmt.Printf("legal anchors: %v\n", len(res.X) == circuit.N() && len(res.Y) == circuit.N())
	// Output:
	// blocks placed: 4
	// legal anchors: true
}

// ExampleBenchmark lists the paper's Table 1 circuits.
func ExampleBenchmark() {
	for _, name := range mps.BenchmarkNames()[:3] {
		c, err := mps.Benchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d blocks\n", c.Name, c.N())
	}
	// Output:
	// circ01: 4 blocks
	// circ02: 6 blocks
	// circ06: 6 blocks
}
