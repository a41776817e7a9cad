package main

// Set-up POSTs and the closed loops. Closed, because a sizing optimizer
// waits for each placement before it scores the candidate (paper
// Fig. 1b): every client sends its next request only when the previous
// answer arrived. Two clients, one keep-alive connection each.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// genSample is one POST /v1/structures that ran a generation.
type genSample struct {
	index    int           // artifact index (set-up) or genSpec index (loop)
	end, lat time.Duration // completion since the loop started (loop only), latency
	info     structureInfo
}

// window is what one route answered in one second of the measured
// interval. Only latencies are kept, not whole samples, so the loop's own
// bookkeeping stays small beside the servers' memory.
type window struct {
	lats            []float64 // ms
	queries, stored int
}

// loopResult is what one loop (or one of its clients) observed.
type loopResult struct {
	wins              [][2]window // per measured second: [server route, reference route]
	gens              []genSample
	attempted, failed int
	// owned counts fleet responses naming the expected owner, of checked.
	owned, checked int
	wrong          error // first wrong answer; the loop stops on it
}

func (r *loopResult) merge(o *loopResult) {
	for k := range o.wins {
		for route, w := range o.wins[k] {
			m := &r.wins[k][route]
			m.lats = append(m.lats, w.lats...)
			m.queries += w.queries
			m.stored += w.stored
		}
	}
	r.gens = append(r.gens, o.gens...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.owned += o.owned
	r.checked += o.checked
	if r.wrong == nil {
		r.wrong = o.wrong
	}
}

// clock places a loop's requests in time: the warm-up, then dur cut into
// one-second windows.
type clock struct {
	start     time.Time
	warm, dur time.Duration
}

func (c clock) end() time.Time { return c.start.Add(c.warm + c.dur) }

// window is the measured second t falls in, or -1 outside the measured
// interval.
func (c clock) window(t time.Time) int {
	d := t.Sub(c.start) - c.warm
	if d < 0 || d >= c.dur {
		return -1
	}
	return int(d / time.Second)
}

// setupArtifacts POSTs every artifact to target from two clients and
// checks each response against the plan. Samples come back in artifact
// order.
func setupArtifacts(ctx context.Context, p *plan, target *node) ([]genSample, error) {
	out := make([]genSample, len(p.Artifacts))
	errs := make([]error, len(p.Artifacts))
	next := make(chan int, len(p.Artifacts)) // holds every index; workers drain it
	for i := range p.Artifacts {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := range next {
				out[i], errs[i] = postArtifact(ctx, c, target, p.Artifacts[i])
				out[i].index = i
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("artifact %d (seed %d): %w", i, p.Artifacts[i].Spec.Seed, err)
		}
	}
	return out, nil
}

func postArtifact(ctx context.Context, c *client, target *node, a artifact) (genSample, error) {
	body, err := json.Marshal(a.Spec)
	if err != nil {
		return genSample{}, err
	}
	t0 := time.Now()
	status, by, resp, err := c.post(ctx, target.url+"/v1/structures", body)
	lat := time.Since(t0)
	if err != nil {
		return genSample{}, err
	}
	if status != http.StatusOK {
		return genSample{}, fmt.Errorf("status %d: %s", status, resp)
	}
	var info structureInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return genSample{}, fmt.Errorf("decoding response: %w", err)
	}
	switch {
	case a.Key != "" && info.Key != a.Key:
		return genSample{}, fmt.Errorf("server key %q, want %q", info.Key, a.Key)
	case target.name != "" && a.Owner != "" && by != a.Owner:
		return genSample{}, fmt.Errorf("served by %q, want %q", by, a.Owner)
	case info.Placements != a.Placements:
		return genSample{}, fmt.Errorf("%d placements, in-process generation has %d", info.Placements, a.Placements)
	case a.Coverage != 0 && info.Coverage != a.Coverage:
		return genSample{}, fmt.Errorf("coverage %v, in-process generation has %v", info.Coverage, a.Coverage)
	}
	return genSample{lat: lat, info: info}, nil
}

// structureGens keeps the set-up samples of single structures: a
// portfolio POST assembles members it does not generate.
func structureGens(p *plan, gens []genSample) []genSample {
	var out []genSample
	for _, g := range gens {
		if p.Artifacts[g.index].Spec.Portfolio <= 1 {
			out = append(out, g)
		}
	}
	return out
}

// runLoop runs the workload's clients against target for warm+dur. The
// query clients switch between the server and the reference route every
// half second (see onReference). With tr set, requests that start in an
// odd second of the measured interval also record a client span, so
// traced and untraced seconds alternate under the same machine conditions.
func runLoop(ctx context.Context, p *plan, target *node, warm, dur time.Duration, tr *tracer) *loopResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	clk := clock{start: time.Now(), warm: warm, dur: dur}
	readers := 2
	if p.Generate {
		readers = 1
	}
	parts := make([]*loopResult, readers+1)
	parts[readers] = &loopResult{}
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k] = readLoop(ctx, cancel, p, target, clk, k*len(p.Requests)/readers, tr)
		}(k)
	}
	if p.Generate {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[readers] = genLoop(ctx, cancel, target, clk)
		}()
	}
	wg.Wait()
	out := &loopResult{wins: make([][2]window, dur/time.Second)}
	for _, part := range parts {
		out.merge(part)
	}
	return out
}

// readLoop cycles through the request pool from index first.
func readLoop(ctx context.Context, stop func(), p *plan, target *node, clk clock, first int, tr *tracer) *loopResult {
	c := newClient()
	defer c.close()
	out := &loopResult{wins: make([][2]window, clk.dur/time.Second)}
	url := target.url + "/v1/instantiate"
	for i := first; time.Now().Before(clk.end()); i = (i + 1) % len(p.Requests) {
		r := &p.Requests[i]
		t0 := time.Now()
		route, u := 0, url
		if onReference(t0.Sub(clk.start)) {
			route, u = 1, target.url+refPath+strconv.Itoa(i)
		}
		status, by, body, err := c.post(ctx, u, r.Body)
		t1 := time.Now()
		if ctx.Err() != nil {
			break // another client found a wrong answer
		}
		out.attempted++
		if err != nil || status != http.StatusOK {
			out.failed++
			continue
		}
		if route == 0 {
			if err := c.verify(p.Requests, i, body); err != nil {
				out.wrong = fmt.Errorf("request %d: %w", i, err)
				stop()
				break
			}
			if owner := p.Artifacts[r.Artifact].Owner; owner != "" && target.name != "" {
				out.checked++
				if by == owner {
					out.owned++
				}
			}
			if tr != nil && clk.window(t0)%2 == 1 {
				tr.add("client.request", t0, t1, 0, i, 0)
			}
		}
		if k := clk.window(t1); k >= 0 {
			w := &out.wins[k][route]
			w.lats = append(w.lats, ms(t1.Sub(t0)))
			w.queries += len(r.Queries)
			if route == 0 {
				w.stored += r.Stored
			}
		}
	}
	return out
}

// genLoop POSTs never-seen generation specs one at a time, genSpec(0)
// onwards.
func genLoop(ctx context.Context, stop func(), target *node, clk clock) *loopResult {
	c := newClient()
	defer c.close()
	out := &loopResult{}
	for i := 0; time.Now().Before(clk.end()); i++ {
		body, err := json.Marshal(genSpec(i))
		if err != nil {
			out.wrong = err
			stop()
			break
		}
		t0 := time.Now()
		status, _, resp, err := c.post(ctx, target.url+"/v1/structures", body)
		t1 := time.Now()
		if ctx.Err() != nil {
			break
		}
		out.attempted++
		if err != nil || status != http.StatusOK {
			out.failed++
			continue
		}
		var info structureInfo
		if err := json.Unmarshal(resp, &info); err != nil || info.Cached || info.Placements <= 0 || info.Stats == nil {
			out.wrong = fmt.Errorf("generation %d (seed %d): unexpected response %s", i, genSpec(i).Seed, resp)
			stop()
			break
		}
		out.gens = append(out.gens, genSample{index: i, end: t1.Sub(clk.start), lat: t1.Sub(t0), info: info})
	}
	return out
}
