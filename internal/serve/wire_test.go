package serve

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"mps"
)

// canonicalBody is an instantiate body shaped like a sizing loop's: an
// inline spec and n five-block queries, each with its own routing weights
// when weighted.
func canonicalBody(t testing.TB, n int, weighted bool) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	spec := GenerateSpec{Circuit: "TwoStageOpamp", Seed: 1, Effort: "balanced"}
	req := instantiateRequest{Spec: &spec, Queries: make([]dimQuery, n)}
	for i := range req.Queries {
		q := &req.Queries[i]
		for b := 0; b < 5; b++ {
			q.Ws = append(q.Ws, 6+rng.Intn(42))
			q.Hs = append(q.Hs, 5+rng.Intn(31))
		}
		if weighted {
			q.Weights = &[]WeightsSpec{{Wire: 1, Area: 0.05}, {Area: 1}, {Wire: 0.25, Aspect: 2}}[i%3]
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// canonicalSeeds lie inside the fast path's grammar and offGrammarSeeds
// just outside it; together they seed FuzzInstantiateDecode. The ws and
// hs bounds are int's, whatever its size; seed is an int64 everywhere.
var canonicalSeeds = []string{
	`{"spec":{"circuit":"TwoStageOpamp","seed":1,"effort":"balanced"},"queries":[{"ws":[20,16,12,24,18],"hs":[10,8,7,12,18]},{"ws":[21,17,13,25,19],"hs":[11,9,8,13,19]}]}`,
	`{"spec":{"circuit":"TwoStageOpamp","seed":1,"effort":"balanced","portfolio":3,"member_weights":[{"area":1},{"wire":1},{"aspect":1}]},"queries":[{"ws":[20,16,12,24,18],"hs":[10,8,7,12,18],"weights":{"wire":1,"area":0.05}},{"ws":[20,16,12,24,18],"hs":[10,8,7,12,18],"weights":{"aspect":2.5e-1}}]}`,
	`{"key":"circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree","weights":{"wire":1,"area":0.05,"aspect":0},"queries":[{"ws":[1,2],"hs":[3,4]}]}`,
	" \t\r\n{ \"queries\" : [ { \"hs\" : [ 1 , -2 ] , \"ws\" : [ ] } ] , \"key\" : \"k\" } \n",
	`{"key":"k","queries":[{"ws":[-0,0],"hs":[` + strconv.Itoa(math.MaxInt) + `,` + strconv.Itoa(math.MinInt) + `]}]}`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1],"weights":{"wire":-0,"area":1E+2,"aspect":0.5e-3}}]}`,
	`{"spec":{"circuit":"circ01","effort":"quick","backup":"seqpair","backend":"ga","seed":-7,"iterations":-20,"bdio_steps":40,"chains":2,"max_placements":-1,"portfolio":2,"weights":{},"member_weights":[]},"queries":[{"weights":{}}]}`,
	`{"spec":{"member_weights":[{"wire":1},{},{"area":0.5,"aspect":2}],"weights":{"wire":1,"area":0.01},"portfolio":3,"circuit":"circ01","seed":0},"queries":[]}`,
	` {"queries":[],"spec" : { "circuit" : "circ01" , "member_weights" : [ ] , "seed" : 9223372036854775807 } } `,
	`{"spec":{},"queries":[{}]}`,
	`{"queries":[{}]}`,
	`{}`,
}

var offGrammarSeeds = []string{
	`{"key":"k","queries":[{"ws":[` + strconv.FormatUint(math.MaxInt+1, 10) + `],"hs":[1]}]}`,
	`{"key":"k","queries":[{"ws":[-` + strconv.FormatUint(math.MaxInt+2, 10) + `],"hs":[1]}]}`,
	`{"key":"k","queries":[{"ws":[9999999999999999999],"hs":[1]}]}`,
	`{"key":"k","queries":[{"ws":[1.0],"hs":[1e2]}]}`,
	`{"key":"k","queries":[{"ws":[01],"hs":[1]}]}`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1],"weights":{"wire":1e400}}]}`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1],"weights":null}]}`,
	`{"key":"a\u0041","queries":[{"ws":[1],"hs":[1]}]}`,
	`{"key":"a\"b<>&","queries":[]}`,
	"{\"key\":\"caf\xc3\xa9\",\"queries\":[{\"ws\":[1],\"hs\":[1]}]}",
	"{\"key\":\"bad\xff\",\"queries\":[{\"ws\":[1],\"hs\":[1]}]}",
	`{"KEY":"k","Queries":[{"WS":[1],"Hs":[1]}]}`,
	`{"key":"k","queries":[{"ws":[1],"ws":[2],"hs":[1]}]}`,
	`{"key":"k","key":"j","queries":[]}`,
	`{"key":null,"spec":null,"weights":null,"queries":null}`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1],"extra":1}]}`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1]}]}]]]`,
	`{"key":"k","queries":[{"ws":[1],"hs":[1]}]} trailing`,
	`{"spec":{"circuit":"c}]\"{\u0041"},"queries":[{"weights":{}}]}`,
	`{"spec":null,"queries":[{"ws":[1],"hs":[1]}]}`,
	`{"spec":{"circuit":"circ01","seed":1.0},"queries":[]}`,
	`{"spec":{"Circuit":"circ01"},"queries":[]}`,
	`{"spec":{"circuit":"circ01","circuit":"circ02"},"queries":[]}`,
	`{"spec":{"circuit":"circ01","bogus":1},"queries":[{"ws":[1],"hs":[1]}]}`,
	`{"spec":{"circuit":"circ\u00301"},"queries":[]}`,
	`{"spec":{"circuit":"circ01","weights":null},"queries":[]}`,
	`{"spec":{"circuit":"circ01","member_weights":null},"queries":[]}`,
	`{"spec":{"circuit":"circ01","member_weights":[{"area":1},null]},"queries":[]}`,
	`{"spec":{"circuit":"circ01","member_weights":[{"area":1},]},"queries":[]}`,
	`{"spec":{"circuit":"circ01","portfolio":9223372036854775808},"queries":[]}`,
	`{"spec":{"circuit":"circ01","seed":"1"},"queries":[]}`,
	`{"spec":[],"queries":[]}`,
	`{"spec":"circ01","queries":[]}`,
	`[]`,
	``,
	`{"queries":[{"ws":[1,],"hs":[1]}]}`,
	`{"queries":[{"ws":[1] "hs":[1]}]}`,
}

// TestInstantiateDecodeCanonicalFastPath pins which bodies the fast path
// takes: sizing-loop bodies must never fall back, or the hot path quietly
// returns to reflection, and off-grammar bodies always do.
func TestInstantiateDecodeCanonicalFastPath(t *testing.T) {
	fast := func(body []byte) bool {
		d := wireDecoder{b: body}
		return d.request(&instantiateRequest{})
	}
	for _, body := range [][]byte{canonicalBody(t, 1, false), canonicalBody(t, 256, false), canonicalBody(t, 256, true)} {
		if !fast(body) {
			t.Errorf("fast path fell back on sizing-loop body %.120s", body)
		}
	}
	for _, s := range canonicalSeeds {
		if !fast([]byte(s)) {
			t.Errorf("fast path fell back on canonical body %q", s)
		}
	}
	for _, s := range offGrammarSeeds {
		if fast([]byte(s)) {
			t.Errorf("fast path accepted off-grammar body %q", s)
		}
	}
}

// FuzzInstantiateDecode checks the fast path against decodeJSONBytes, the
// decoder it stands in for: whatever the fast path accepts,
// decodeJSONBytes accepts as the same request, and decodeInstantiate
// agrees with decodeJSONBytes on every input, error text included.
func FuzzInstantiateDecode(f *testing.F) {
	for _, s := range append(canonicalSeeds, offGrammarSeeds...) {
		f.Add([]byte(s))
	}
	f.Add(canonicalBody(f, 3, false))
	f.Add(canonicalBody(f, 3, true))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want instantiateRequest
		wantErr := decodeJSONBytes(body, &want)

		var fast instantiateRequest
		d := wireDecoder{b: body}
		if d.request(&fast) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; decodeJSONBytes: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %+v; decodeJSONBytes as %+v", body, fast, want)
			}
		}

		var got instantiateRequest
		err := decodeInstantiate(body, &got)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decodeInstantiate(%q) = %v; decodeJSONBytes: %v", body, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decodeInstantiate(%q) error %q; decodeJSONBytes %q", body, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decodeInstantiate(%q) = %+v; decodeJSONBytes %+v", body, got, want)
		}
	})
}

// TestInstantiateDecodeAllocsFlat pins the arena: decoding a canonical
// body allocates the same number of objects whatever the query count. On
// a 4-query body that is 6 objects: the request, the int arena, the
// query slice, the spec and its circuit and effort strings (7 weighted,
// with the query weights arena).
func TestInstantiateDecodeAllocsFlat(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		want := 6.0
		if weighted {
			want = 7
		}
		for _, n := range []int{4, 64, 256} {
			body := canonicalBody(t, n, weighted)
			allocs := testing.AllocsPerRun(20, func() {
				var req instantiateRequest
				if err := decodeInstantiate(body, &req); err != nil || len(req.Queries) != n {
					t.Fatalf("decoding %d queries: %v", n, err)
				}
			})
			if allocs != want {
				t.Errorf("weighted=%v: %d queries decode in %v allocations, want %v", weighted, n, allocs, want)
			}
		}
	}
}

// historicalResult is the handler's per-query result struct from before
// the append encoder: the reference its bytes must equal.
type historicalResult struct {
	X           []int  `json:"x,omitempty"`
	Y           []int  `json:"y,omitempty"`
	PlacementID int    `json:"placement_id"`
	Member      int    `json:"member"`
	FromBackup  bool   `json:"from_backup"`
	Error       string `json:"error,omitempty"`
}

// historicalResponse writes batch the way the handler did before the
// append encoder: result structs plus writeJSON of a map.
func historicalResponse(key string, batch []mps.BatchResult) *httptest.ResponseRecorder {
	results := make([]historicalResult, len(batch))
	served := 0
	for i, br := range batch {
		if br.Err != nil {
			results[i] = historicalResult{PlacementID: -1, Member: -1, Error: br.Err.Error()}
			continue
		}
		served++
		results[i] = historicalResult{X: br.X, Y: br.Y, PlacementID: br.PlacementID, Member: br.Member, FromBackup: br.FromBackup}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"key": key, "served": served, "results": results})
	return rec
}

// awkwardStrings need escaping: HTML characters, quotes, control bytes,
// line separators and invalid UTF-8.
var awkwardStrings = []string{
	"", "plain", `<script>&"quoted"</script>`, "line\nbreak\r\ttab", "back\\slash",
	"\x00\x01\x1f\x7f", "sep\u2028\u2029", "caf\u00e9 \U0001F600", "bad\xff\xfe utf8",
	"circ01|seed=1|it=20|bdio=40|chains=1|maxp=0|backup=tree|w=wire:1,area:0.05",
}

// TestInstantiateResponseMatchesEncodingJSON is the encoder's property
// test: for random batches — stored and backup answers, negative and
// large coordinates, portfolio members, empty anchors, errors with
// characters JSON must escape — the append encoder writes exactly the
// bytes, status and content type the historical writeJSON path did.
func TestInstantiateResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coords := func() []int {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		xs := make([]int, 1+rng.Intn(24))
		for i := range xs {
			xs[i] = rng.Intn(2001) - 1000
			if rng.Intn(16) == 0 {
				xs[i] = int(rng.Int63n(1<<62) - 1<<61)
			}
		}
		return xs
	}
	for trial := 0; trial < 300; trial++ {
		batch := make([]mps.BatchResult, rng.Intn(40))
		for i := range batch {
			br := &batch[i]
			switch rng.Intn(4) {
			case 0:
				br.Err = errors.New(awkwardStrings[rng.Intn(len(awkwardStrings))])
				br.Member, br.PlacementID = -1, -1
			case 1:
				br.X, br.Y = coords(), coords()
				br.PlacementID, br.Member, br.FromBackup = -1, -1, true
			default:
				br.X, br.Y = coords(), coords()
				br.PlacementID, br.Member = rng.Intn(5000), rng.Intn(8)
			}
		}
		key := awkwardStrings[rng.Intn(len(awkwardStrings))]
		want := historicalResponse(key, batch)
		got := httptest.NewRecorder()
		writeInstantiateResponse(got, buildInstantiateResponse(key, batch))
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("trial %d: status %d %q, want %d %q", trial, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if g, w := got.Body.String(), want.Body.String(); g != w {
			at := 0
			for at < len(g) && at < len(w) && g[at] == w[at] {
				at++
			}
			t.Fatalf("trial %d: bodies differ at byte %d:\n got %q\nwant %q", trial, at,
				g[max(0, at-40):min(len(g), at+40)], w[max(0, at-40):min(len(w), at+40)])
		}
	}
}
