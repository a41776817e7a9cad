// Command mpsquery loads a saved multi-placement structure and instantiates
// a placement for a dimension vector (paper Fig. 1b's placement
// instantiator), printing the chosen placement and optionally rendering it.
//
// Usage:
//
//	mpsquery -circuit TwoStageOpamp -in tso.mps -dims "20x10,16x8,12x7,24x12,18x18"
//	mpsquery -circuit TwoStageOpamp -in tso.mps -frac 0.5 -render
//
// Dimensions are per-block WxH pairs in block order; -frac picks every
// block's dimensions at the given fraction of its range instead. Every
// structure file format (binary v2, plus legacy v3 and gob v1) loads
// transparently.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mps"
	"mps/internal/cost"
	"mps/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpsquery: ")

	circuitName := flag.String("circuit", "", "benchmark circuit name")
	in := flag.String("in", "", "structure file written by mpsgen")
	dims := flag.String("dims", "", "comma-separated WxH per block, e.g. \"20x10,16x8\"")
	frac := flag.Float64("frac", -1, "set all dims at this fraction of their ranges [0,1]")
	doRender := flag.Bool("render", false, "render the instantiated floorplan as ASCII")
	flag.Parse()

	if *circuitName == "" || *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	circuit, err := mps.Benchmark(*circuitName)
	if err != nil {
		log.Fatal(err)
	}
	s, err := mps.LoadFile(*in, circuit)
	if err != nil {
		log.Fatal(err)
	}

	ws := make([]int, circuit.N())
	hs := make([]int, circuit.N())
	switch {
	case *dims != "":
		parts := strings.Split(*dims, ",")
		if len(parts) != circuit.N() {
			log.Fatalf("need %d WxH pairs, got %d", circuit.N(), len(parts))
		}
		for i, p := range parts {
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%dx%d", &ws[i], &hs[i]); err != nil {
				log.Fatalf("bad dim %q: %v", p, err)
			}
		}
	case *frac >= 0 && *frac <= 1:
		for i, b := range circuit.Blocks {
			ws[i] = b.WMin + int(*frac*float64(b.WMax-b.WMin))
			hs[i] = b.HMin + int(*frac*float64(b.HMax-b.HMin))
		}
	default:
		log.Fatal("provide -dims or -frac")
	}

	start := time.Now()
	res, err := s.Instantiate(ws, hs)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("structure:    %d placements\n", s.NumPlacements())
	if res.FromBackup {
		fmt.Println("answered by:  backup template (uncovered dimension region)")
	} else {
		fmt.Printf("answered by:  stored placement %d\n", res.PlacementID)
	}
	fmt.Printf("latency:      %s\n", elapsed)
	for i, b := range circuit.Blocks {
		fmt.Printf("  %-12s %3dx%-3d at (%d,%d)\n", b.Name, ws[i], hs[i], res.X[i], res.Y[i])
	}
	if *doRender {
		l := &cost.Layout{Circuit: circuit, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.Floorplan()}
		fmt.Print(render.ASCII(l, render.DefaultASCII))
		fmt.Printf("wire length: %d   area: %d   dead space: %d\n",
			cost.WireLength(l), cost.UsedArea(l), cost.DeadSpace(l))
	}
}
