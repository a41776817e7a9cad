package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's measuring child
// process, as the bench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and the code naming the
// same workloads and metrics, with the same units, directions and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		file, code any
	}{
		{"workloads", spec.Workloads, workloads},
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		if !reflect.DeepEqual(c.file, c.code) {
			t.Errorf("%s differ:\nBENCHMARK.json %+v\ncode           %+v", c.name, c.file, c.code)
		}
	}
}

// TestSeededInputs: one seed always yields byte-identical request streams
// and generation specs; another seed yields a different request stream.
// generate_mixed's generation seeds are the same for every seed on
// purpose (see genSeedBase).
func TestSeededInputs(t *testing.T) {
	ctx := context.Background()
	stream := func(p *plan) []byte {
		var b bytes.Buffer
		for _, a := range p.Artifacts {
			s, _ := json.Marshal(a.Spec)
			b.Write(s)
		}
		for _, r := range p.Requests {
			b.Write(r.Body)
		}
		return b.Bytes()
	}
	for _, w := range workloads {
		a, err := buildPlan(ctx, w.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := buildPlan(ctx, w.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := buildPlan(ctx, w.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream(a), stream(again)) {
			t.Errorf("%s: seed 1 gave two different request streams", w.Name)
		}
		if bytes.Equal(stream(a), stream(other)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.Name)
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := genSpec(i).Seed
		if seen[s] || s == artifactSeed {
			t.Fatalf("generation seed %d repeats: a generate_mixed spec would hit the cache", s)
		}
		seen[s] = true
	}
}

// runBench runs the benchmark as its command line does and returns the
// parsed result line and the human-readable output.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := parentMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if code != 0 {
		t.Fatalf("bench %v exited %d\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("bench %v: correct %v, %d of %d failed\n%s", args, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return res, stderr.String()
}

func checkMetrics(t *testing.T, workload string, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (positive && m.Value == 0):
			t.Errorf("%s: %s = %v", workload, d.Name, m.Value)
		}
	}
}

// TestWorkloads runs every workload for one second: every end-to-end
// metric is reported with its unit, nothing fails, and cluster_forward
// forwards every request. Each run measures in a child process of its
// own, so the runs can share the test's time.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, log := runBench(t, "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", "0")
			checkMetrics(t, w.Name, res, endToEnd, true)
			if got := res.Metrics["stored_frac"].Value; got < 0.74 {
				t.Errorf("stored_frac %v, want at least 0.74", got)
			}
			if w.Name == "cluster_forward" && !strings.Contains(log, "cluster.forwarded_frac 1.0000") {
				t.Errorf("cluster_forward did not report forwarded_frac 1:\n%s", log)
			}
		})
	}
}

// TestTracedRun checks the traced run reports every per-layer metric and
// writes spans for every query layer.
func TestTracedRun(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	res, _ := runBench(t, "--workload", "cluster_forward", "--seed", "3", "--seconds", "2", "--trace", "1", "--spans", spans)
	checkMetrics(t, "cluster_forward", res, perLayer, false)
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range file.Spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, name := range append([]string{"replay.request", "client.request"}, queryLayers...) {
		if count[name] == 0 {
			t.Errorf("no %s spans among %v", name, count)
		}
	}
}
