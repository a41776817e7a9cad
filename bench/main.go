// Command bench is the repository benchmark: seeded, closed-loop
// workloads driven through mpsd's HTTP API against real serve.Servers on
// loopback listeners, with every answer checked against an in-process
// oracle, plus a traced run that replays the same inputs layer by layer.
// See README.md for the workloads, the metrics and how to compare two
// commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload single_batch --seed 1 --seconds 10 --trace 0
//
// The process builds the workload's inputs from --seed, then measures in
// a fresh child process of the same binary, which receives the inputs on
// standard input. Human-readable results go to standard error; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// childEnv marks the measuring child process.
const childEnv = "BENCH_CHILD"

// runTimeout bounds a whole run, set-up and checks included.
const runTimeout = 170 * time.Second

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "measured seconds, after warm-up")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics instead")
	spans := fs.String("spans", "", "traced run: spans file (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !isWorkload(*workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: need --workload <name> and --seconds >= 1, with --trace 0 or 1")
		fs.Usage()
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	p, err := buildPlan(ctx, *workload, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: building inputs: %v\n", *workload, err)
		return 1
	}
	p.Seconds, p.Trace, p.Spans = *seconds, *trace == 1, *spans
	if p.Trace && p.Spans == "" {
		p.Spans = filepath.Join(".bench_build", "spans-"+p.Workload+".json")
	}
	var in bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(p); err != nil {
		fmt.Fprintf(stderr, "bench: encoding inputs: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = &in, stdout, stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(stderr, "bench: %s: measuring process: %v\n", *workload, err)
		return 1
	}
	return 0
}

// childMain measures one plan read from stdin and prints the result line.
// A wrong answer still prints the line, with correct false, and fails.
func childMain(stdin io.Reader, stdout, stderr io.Writer) int {
	var p plan
	if err := gob.NewDecoder(stdin).Decode(&p); err != nil {
		fmt.Fprintf(stderr, "bench: reading inputs: %v\n", err)
		return 1
	}
	installPeerDialer()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	run := runE2E
	if p.Trace {
		run = runTraced
	}
	res, err := run(ctx, &p, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", p.Workload, err)
		if res == nil {
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
