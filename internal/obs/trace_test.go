package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	id := TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	span := SpanID(0xdeadbeefcafef00d)
	v := EncodeTraceHeader(id, span)
	if want := "v1;id=0123456789abcdeffedcba9876543210;span=deadbeefcafef00d"; v != want {
		t.Fatalf("EncodeTraceHeader = %q, want %q", v, want)
	}
	gotID, gotSpan, ok := ParseTraceHeader(v)
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("ParseTraceHeader(%q) = (%v, %v, %v), want (%v, %v, true)", v, gotID, gotSpan, ok, id, span)
	}
}

func TestTraceHeaderRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"v1",
		"v1;id=;span=",
		"v2;id=0123456789abcdeffedcba9876543210;span=deadbeefcafef00d",
		"v1;id=0123456789ABCDEFfedcba9876543210;span=deadbeefcafef00d", // uppercase
		"v1;id=0123456789abcdeffedcba987654321;span=deadbeefcafef00dd", // shifted widths
		"v1;id=00000000000000000000000000000000;span=deadbeefcafef00d", // zero trace id
		"v1;id=0123456789abcdeffedcba9876543210;span=deadbeefcafef00",  // short span
		strings.Repeat("a", 1000),
	}
	for _, v := range bad {
		if id, span, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted: id=%v span=%v", v, id, span)
		}
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	type doc struct {
		T TraceID `json:"t"`
		S SpanID  `json:"s"`
	}
	in := doc{T: TraceID{Hi: 1, Lo: 0xabc}, S: SpanID(42)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out doc
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestNewTraceIdentities(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	if a.ID().IsZero() || b.ID().IsZero() {
		t.Fatal("NewTrace produced a zero trace ID")
	}
	if a.ID() == b.ID() {
		t.Fatal("two traces share an ID")
	}
	if a.RootSpan() == 0 {
		t.Fatal("zero root span")
	}
	if a.ParentSpan() != 0 || a.CrossNode() {
		t.Fatal("fresh trace claims a remote parent")
	}

	linked := NewLinkedTrace(a.ID(), a.RootSpan())
	if linked.ID() != a.ID() {
		t.Fatal("linked trace did not adopt the propagated ID")
	}
	if linked.ParentSpan() != a.RootSpan() || !linked.CrossNode() {
		t.Fatal("linked trace lost its parent")
	}
}

func TestSpanRecordingAndSnapshot(t *testing.T) {
	tr := NewTrace()
	tr.Annotate("key-1")
	sp := tr.StartSpan(StageCache)
	sp.SetKey("key-1")
	child := sp.StartChild()
	child.SetRemote("http://peer:1")
	time.Sleep(time.Millisecond)
	child.End()
	sp.End()
	live := tr.StartSpan(StageEncode) // never ended: must not appear
	_ = live

	if !tr.CrossNode() {
		t.Fatal("SetRemote did not mark the trace cross-node")
	}
	ts := NewTraceStore("n1", 8, 0, 1)
	kept := ts.Offer(tr, "instantiate", "", 200, 5*time.Millisecond)
	if kept == nil {
		t.Fatal("sample=1 store discarded the trace")
	}
	recs := ts.Get(tr.ID())
	if len(recs) != 1 {
		t.Fatalf("Get returned %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec != kept {
		t.Fatal("Offer returned a different record than the store retained")
	}
	if rec.Key != "key-1" || rec.Route != "instantiate" || rec.Node != "n1" {
		t.Fatalf("record meta: %+v", rec)
	}
	// Root + cache + child; the un-ended encode span is skipped.
	if len(rec.Spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3: %+v", len(rec.Spans), rec.Spans)
	}
	root := rec.Spans[0]
	if root.Stage != "request" || root.ID != tr.RootSpan() {
		t.Fatalf("root span: %+v", root)
	}
	var cache, remote *SpanRecord
	for i := range rec.Spans {
		switch rec.Spans[i].Stage {
		case "cache":
			if rec.Spans[i].Remote == "" {
				cache = &rec.Spans[i]
			} else {
				remote = &rec.Spans[i]
			}
		}
	}
	if cache == nil || remote == nil {
		t.Fatalf("missing cache/attempt spans: %+v", rec.Spans)
	}
	if cache.Parent != root.ID {
		t.Fatalf("cache span parent = %v, want root %v", cache.Parent, root.ID)
	}
	if remote.Parent != cache.ID {
		t.Fatalf("child span parent = %v, want %v", remote.Parent, cache.ID)
	}
	if remote.StartUnixNs < cache.StartUnixNs {
		t.Fatalf("child starts before parent: %d < %d", remote.StartUnixNs, cache.StartUnixNs)
	}
	if remote.DurationNs < int64(time.Millisecond) {
		t.Fatalf("child duration %dns, want >= 1ms", remote.DurationNs)
	}
	if remote.DurationNs > cache.DurationNs {
		t.Fatalf("child (%dns) outlasts parent (%dns)", remote.DurationNs, cache.DurationNs)
	}
}

func TestNilTraceSpans(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan(StageInstantiate)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("nil-trace span measured %v, want >= 1ms", d)
	}
	sp.SetKey("k")
	sp.SetRemote("p")
	if _, ok := sp.Header(); ok {
		t.Fatal("nil-trace span produced a propagation header")
	}
	if tr.CrossNode() || tr.DroppedSpans() != 0 {
		t.Fatal("nil trace mutated")
	}
}

func TestSpanOverflowCountsDropped(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < maxSpans+5; i++ {
		tr.StartSpan(StageInstantiate).End()
	}
	if got := tr.DroppedSpans(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	// Overflow refs still propagate: they carry the root span.
	sp := tr.StartSpan(StageForward)
	if sp.SpanID() != tr.RootSpan() {
		t.Fatalf("overflow ref span = %v, want root %v", sp.SpanID(), tr.RootSpan())
	}
	if hv, ok := sp.Header(); !ok || hv == "" {
		t.Fatal("overflow ref lost the propagation header")
	}
}

// TestSlowQueryStages pins how the slow-query line sums a retained
// record's spans: the root span is skipped, a same-stage child (a
// cluster.Do attempt under its forward span) is not added again, a child
// of another stage (store_read under cache) counts in its own stage,
// siblings of one stage add up, zero-length stages do not render, and
// the line reports the segment's dropped spans.
func TestSlowQueryStages(t *testing.T) {
	const ms = int64(time.Millisecond)
	rec := &TraceRecord{
		ID: TraceID{Hi: 1, Lo: 2}, Root: 10, Route: "instantiate", Key: "k",
		Status: 200, DurationNs: 12 * ms, DroppedSpans: 2,
		Spans: []SpanRecord{
			{ID: 10, Parent: 99, Stage: "request", DurationNs: 12 * ms},
			{ID: 11, Parent: 10, Stage: "forward", DurationNs: 4 * ms},
			{ID: 12, Parent: 11, Stage: "forward", DurationNs: 3 * ms, Remote: "http://peer"},
			{ID: 13, Parent: 10, Stage: "forward", DurationNs: ms},
			{ID: 14, Parent: 10, Stage: "cache", DurationNs: 2 * ms},
			{ID: 15, Parent: 14, Stage: "store_read", DurationNs: 3 * ms / 2},
			{ID: 16, Parent: 10, Stage: "encode"},
		},
	}
	e := rec.SlowQuery("POST", "/v1/instantiate", "http://peer")
	want := map[string]float64{"forward": 5, "cache": 2, "store_read": 1.5}
	if len(e.Stages) != len(want) {
		t.Fatalf("stages = %v, want %v", e.Stages, want)
	}
	for name, v := range want {
		if e.Stages[name] != v {
			t.Fatalf("stages = %v, want %v", e.Stages, want)
		}
	}
	if e.Route != "instantiate" || e.Status != 200 || e.Millis != 12 || e.Key != "k" ||
		e.TraceID != rec.ID.String() || e.ServedBy != "http://peer" || e.DroppedSpans != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if line := e.Render(); !strings.Contains(line, `"dropped_spans":2`) {
		t.Fatalf("line does not report dropped spans: %s", line)
	}

	// The same rule on a recorded trace: a forward span with one attempt
	// child counts the forward span's time exactly once.
	tr := NewTrace()
	fwd := tr.StartSpan(StageForward)
	att := fwd.StartChild()
	att.SetRemote("http://peer")
	time.Sleep(time.Millisecond)
	att.End()
	fwd.End()
	for i := 0; i < maxSpans; i++ {
		tr.StartSpan(StageEncode).End()
	}
	got := NewTraceStore("n", 4, 0, 1).Offer(tr, "instantiate", "", 200, 5*time.Millisecond)
	if got == nil {
		t.Fatal("sample=1 store discarded the trace")
	}
	e = got.SlowQuery("POST", "/v1/instantiate", "")
	if fwdNs := got.Spans[1].DurationNs; got.Spans[1].Stage != "forward" ||
		e.Stages["forward"] != float64(fwdNs)/float64(time.Millisecond) {
		t.Fatalf("stages.forward = %v, want the forward span's %dns", e.Stages["forward"], fwdNs)
	}
	if e.DroppedSpans != 2 || !strings.Contains(e.Render(), `"dropped_spans":2`) {
		t.Fatalf("dropped spans = %d, want 2 (34 spans, 32 slots)", e.DroppedSpans)
	}
}

// sinkTrace keeps traces built in allocation tests on the heap, as a
// request's trace is.
var sinkTrace *Trace

// TestSpanSlotsInlineThenBlock pins the slot layout: spans 1–8 live in
// the Trace, spans 9–32 in the block the 9th installs, and the 33rd is
// dropped. Snapshots list every committed span in slot order under its
// historical ID, base+1+slot.
func TestSpanSlotsInlineThenBlock(t *testing.T) {
	tr := NewTrace()
	ts := NewTraceStore("n", 4, 0, 1)
	for i := 0; i < inlineSpans; i++ {
		sp := tr.StartSpan(StageCache)
		if got := tr.slot(int32(i), false); got != &tr.spans[i] {
			t.Fatalf("span %d is not in inline slot %d", i+1, i)
		}
		sp.SetKey("k")
		sp.End()
	}
	if tr.block.Load() != nil {
		t.Fatal("8 spans installed the slot block")
	}

	// A reserver that has not installed the block yet: the snapshot
	// lists the inline spans and skips the block.
	tr.n.Add(1)
	rec := ts.snapshot(tr, "r", "", 200, time.Millisecond, "sampled")
	if len(rec.Spans) != 1+inlineSpans {
		t.Fatalf("snapshot before the block exists has %d spans, want %d", len(rec.Spans), 1+inlineSpans)
	}
	tr.n.Add(-1)

	for i := inlineSpans; i < maxSpans+1; i++ {
		sp := tr.StartSpan(StageFetch)
		sp.SetRemote("http://peer")
		sp.End()
	}
	b := tr.block.Load()
	if b == nil {
		t.Fatal("the 9th span did not install the slot block")
	}
	for i := inlineSpans; i < maxSpans; i++ {
		if got := tr.slot(int32(i), false); got != &b[i-inlineSpans] {
			t.Fatalf("span %d is not in block slot %d", i+1, i-inlineSpans)
		}
	}
	if got := tr.DroppedSpans(); got != 1 {
		t.Fatalf("dropped = %d, want 1 (the 33rd span)", got)
	}

	rec = ts.snapshot(tr, "r", "", 200, time.Millisecond, "sampled")
	if len(rec.Spans) != 1+maxSpans {
		t.Fatalf("snapshot has %d spans, want %d", len(rec.Spans), 1+maxSpans)
	}
	for i, sp := range rec.Spans[1:] {
		wantStage, wantKey, wantRemote := "cache", "k", ""
		if i >= inlineSpans {
			wantStage, wantKey, wantRemote = "fetch", "", "http://peer"
		}
		if sp.ID != SpanID(uint64(tr.RootSpan())+uint64(i)+1) || sp.Parent != tr.RootSpan() ||
			sp.Stage != wantStage || sp.Key != wantKey || sp.Remote != wantRemote {
			t.Fatalf("snapshot span %d = %+v, want ID root+%d, stage %s, key %q, remote %q",
				i, sp, i+1, wantStage, wantKey, wantRemote)
		}
	}
}

// TestTraceSpanAllocs pins what a trace costs the allocator: a trace with
// up to 8 spans is one allocation, the 9th span adds the block, and
// overflow past 32 adds nothing.
func TestTraceSpanAllocs(t *testing.T) {
	for _, tc := range []struct{ spans, want int }{{0, 1}, {inlineSpans, 1}, {inlineSpans + 1, 2}, {maxSpans + 4, 2}} {
		got := testing.AllocsPerRun(100, func() {
			tr := NewTrace()
			for i := 0; i < tc.spans; i++ {
				tr.StartSpan(StageInstantiate).End()
			}
			sinkTrace = tr
		})
		if got != float64(tc.want) {
			t.Errorf("NewTrace with %d spans: %v allocations, want %d", tc.spans, got, tc.want)
		}
	}
}

// TestConcurrentSpansAcrossBlockRaceClean starts spans on fresh traces
// from several goroutines at once, so the 9th reservation, the block's
// installation and later reservations race, while snapshots run beside
// them. Every committed span must appear exactly once under its ID.
func TestConcurrentSpansAcrossBlockRaceClean(t *testing.T) {
	const goroutines, perG = 4, 5 // 20 spans: the 9th falls mid-race
	ts := NewTraceStore("n", 4, 0, 1)
	for round := 0; round < 200; round++ {
		tr := NewTrace()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					sp := tr.StartSpan(StageFetch)
					sp.SetKey("k")
					sp.SetRemote("http://peer")
					sp.End()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				ts.snapshot(tr, "r", "", 200, time.Millisecond, "sampled")
			}
		}()
		close(start)
		wg.Wait()
		rec := ts.snapshot(tr, "r", "", 200, time.Millisecond, "sampled")
		if len(rec.Spans) != 1+goroutines*perG {
			t.Fatalf("round %d: snapshot has %d spans, want %d", round, len(rec.Spans), 1+goroutines*perG)
		}
		for i, sp := range rec.Spans[1:] {
			if sp.ID != SpanID(uint64(tr.RootSpan())+uint64(i)+1) || sp.Key != "k" || sp.Remote != "http://peer" {
				t.Fatalf("round %d: span %d = %+v", round, i, sp)
			}
		}
	}
}

// TestConcurrentSpansRaceClean exercises concurrent span recording
// against snapshotting — the fan-out pattern — under the race detector.
func TestConcurrentSpansRaceClean(t *testing.T) {
	tr := NewTrace()
	ts := NewTraceStore("n", 4, 0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan(StageFetch)
				sp.SetRemote("http://peer")
				sp.End()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		ts.Offer(tr, "structures", "", 200, time.Millisecond)
	}
	wg.Wait()
}

func TestTailSamplingRules(t *testing.T) {
	mk := func() *Trace { return NewTrace() }
	// offer returns the retention reason, "" for a discarded trace.
	offer := func(ts *TraceStore, tr *Trace, from string, status int, d time.Duration) string {
		if rec := ts.Offer(tr, "r", from, status, d); rec != nil {
			return rec.Retained
		}
		return ""
	}
	ts := NewTraceStore("n", 16, 10*time.Millisecond, 0)
	if r := offer(ts, mk(), "", 200, time.Millisecond); r != "" {
		t.Fatalf("fast 200 retained as %q, want discard", r)
	}
	if r := offer(ts, mk(), "", 500, time.Millisecond); r != "error" {
		t.Fatalf("5xx retained as %q, want error", r)
	}
	if r := offer(ts, mk(), "", 200, 50*time.Millisecond); r != "slow" {
		t.Fatalf("slow retained as %q, want slow", r)
	}
	cross := NewLinkedTrace(TraceID{Hi: 1, Lo: 1}, 7)
	if r := offer(ts, cross, "up", 200, time.Millisecond); r != "cross_node" {
		t.Fatalf("propagated trace retained as %q, want cross_node", r)
	}

	// Deterministic sampling: the decision is a pure function of the ID,
	// so two stores (two nodes) agree on every trace.
	a := NewTraceStore("a", 16, 0, 0.5)
	b := NewTraceStore("b", 16, 0, 0.5)
	for i := 0; i < 64; i++ {
		tr := NewTrace()
		ra := offer(a, tr, "", 200, time.Millisecond)
		rb := offer(b, tr, "", 200, time.Millisecond)
		if (ra == "") != (rb == "") {
			t.Fatalf("nodes disagree on trace %v: %q vs %q", tr.ID(), ra, rb)
		}
	}
}

func TestTraceStoreRingEviction(t *testing.T) {
	ts := NewTraceStore("n", 4, 0, 1)
	var ids []TraceID
	for i := 0; i < 6; i++ {
		tr := NewTrace()
		ids = append(ids, tr.ID())
		ts.Offer(tr, "r", "", 200, time.Duration(i+1)*time.Millisecond)
	}
	if got := ts.Get(ids[0]); got != nil {
		t.Fatal("oldest trace survived a full ring")
	}
	if got := ts.Get(ids[5]); len(got) != 1 {
		t.Fatal("newest trace missing")
	}
	recent := ts.Recent(TraceFilter{})
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d, want 4", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].DurationNs < recent[i].DurationNs {
			t.Fatalf("Recent not newest-first: %v", recent)
		}
	}
	filtered := ts.Recent(TraceFilter{MinDuration: 6 * time.Millisecond})
	if len(filtered) != 1 {
		t.Fatalf("MinDuration filter returned %d, want 1", len(filtered))
	}
	offered, retained, buffered := ts.Stats()
	if offered != 6 || retained != 6 || buffered != 4 {
		t.Fatalf("Stats = (%d, %d, %d), want (6, 6, 4)", offered, retained, buffered)
	}
}

// FuzzTraceHeaderDecode: no input may panic the decoder, and anything it
// accepts must round-trip exactly and never yield a zero trace ID (the
// "bogus parent" guard — an unparseable header must start a fresh trace).
func FuzzTraceHeaderDecode(f *testing.F) {
	f.Add("v1;id=0123456789abcdeffedcba9876543210;span=deadbeefcafef00d")
	f.Add("v1;id=00000000000000000000000000000000;span=0000000000000000")
	f.Add("v1;id=;span=")
	f.Add("")
	f.Add(strings.Repeat(";", 100))
	f.Fuzz(func(t *testing.T, v string) {
		id, span, ok := ParseTraceHeader(v)
		if !ok {
			if !id.IsZero() || span != 0 {
				t.Fatalf("rejected input leaked ids: %v %v", id, span)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("accepted zero trace id from %q", v)
		}
		if re := EncodeTraceHeader(id, span); re != v {
			t.Fatalf("round trip: %q -> %q", v, re)
		}
		// A linked trace built from any accepted header is well-formed.
		tr := NewLinkedTrace(id, span)
		if tr.ID() != id || tr.ParentSpan() != span {
			t.Fatalf("NewLinkedTrace(%v, %v) = (%v, %v)", id, span, tr.ID(), tr.ParentSpan())
		}
	})
}
