package serve

// The /v1/instantiate wire codec. Every query of a sizing loop pays it, so
// neither direction uses reflection or allocates per query.
//
// The decoder makes one pass over bodies in the canonical grammar
//
//	{"key": "...", "spec": {spec}, "weights": {weights},
//	 "queries": [{"ws": [ints], "hs": [ints], "weights": {weights}}, ...]}
//
//	spec:    {"circuit", "effort", "backup", "backend": strings,
//	          "seed", "iterations", "bdio_steps", "chains",
//	          "max_placements", "portfolio": integers,
//	          "weights": {weights}, "member_weights": [{weights}, ...]}
//	weights: {"wire": n, "area": n, "aspect": n}
//
// (every member optional, in any order, whitespace anywhere JSON allows
// it) and cuts every ws and hs array from one int arena. Any other body —
// escapes or non-ASCII in strings, keys spelled in another case,
// duplicate keys, null, non-integer or out-of-range integers, unknown
// fields, trailing bytes — goes whole to decodeJSONBytes, which then
// accepts or rejects it with the same request and error text as before
// the fast path existed. The input bytes alone choose the path;
// FuzzInstantiateDecode checks that whatever the fast path accepts,
// decodeJSONBytes accepts as the same request.
//
// The encoder appends the response into a pooled buffer, byte for byte
// what encoding/json writes for the map {"key", "results", "served"} of
// the handler's historical result struct (pinned by
// TestInstantiateResponseMatchesEncodingJSON).

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mps"
)

// decodeInstantiate decodes an instantiate request body into req.
func decodeInstantiate(body []byte, req *instantiateRequest) error {
	d := wireDecoder{b: body}
	if d.request(req) {
		return nil
	}
	*req = instantiateRequest{}
	return decodeJSONBytes(body, req)
}

// wireDecoder is the canonical-grammar parser. Every method reports false
// as soon as the body leaves the grammar; the caller then falls back.
type wireDecoder struct {
	b []byte
	i int
	// ints is the arena every ws and hs array is cut from; weights backs
	// the per-query weight vectors.
	ints    []int
	weights []WeightsSpec
	// maxQueries is the queries' capacity hint, which also sizes weights:
	// a query holds at most one weights object.
	maxQueries int
}

// request parses the top-level object. Its capacity hints are each one
// single-byte count over the body: a body's integers number at most its
// commas plus one (each array's k integers need k-1 commas, and at least
// one comma separates consecutive arrays), and a canonical body's
// queries number half its '[' besides the queries array's own, rounded
// down: each query holds two arrays, ws and hs, and member_weights adds
// at most one more.
func (d *wireDecoder) request(req *instantiateRequest) bool {
	d.ints = make([]int, 0, bytes.Count(d.b, []byte{','})+1)
	var seen uint8
	ok := d.object(func(k []byte) bool {
		var bit uint8
		ok := false
		switch string(k) {
		case "key":
			bit, ok = 1, d.text(&req.Key)
		case "spec":
			bit = 2
			ok = d.spec(req)
		case "weights":
			bit = 4
			req.Weights = new(WeightsSpec)
			ok = d.weightsObject(req.Weights)
		case "queries":
			bit = 8
			ok = d.queries(req)
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	d.space()
	return ok && d.i == len(d.b)
}

// object parses a JSON object whose keys are plain ASCII strings, calling
// member with each key once the colon is consumed; member parses the
// value.
func (d *wireDecoder) object(member func(k []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		d.space()
		k, ok := d.str()
		if !ok || !d.next(':') {
			return false
		}
		d.space()
		if !member(k) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// spec parses the spec object: each GenerateSpec field under its exact
// JSON name, at most once.
func (d *wireDecoder) spec(req *instantiateRequest) bool {
	g := new(GenerateSpec)
	req.Spec = g
	var seen uint16
	return d.object(func(k []byte) bool {
		var bit uint16
		ok := false
		switch string(k) {
		case "circuit":
			bit, ok = 1<<0, d.text(&g.Circuit)
		case "effort":
			bit, ok = 1<<1, d.text(&g.Effort)
		case "backup":
			bit, ok = 1<<2, d.text(&g.Backup)
		case "backend":
			bit, ok = 1<<3, d.text(&g.Backend)
		case "seed":
			bit = 1 << 4
			g.Seed, ok = d.integer64()
		case "iterations":
			bit = 1 << 5
			g.Iterations, ok = d.integer()
		case "bdio_steps":
			bit = 1 << 6
			g.BDIOSteps, ok = d.integer()
		case "chains":
			bit = 1 << 7
			g.Chains, ok = d.integer()
		case "max_placements":
			bit = 1 << 8
			g.MaxPlacements, ok = d.integer()
		case "portfolio":
			bit = 1 << 9
			g.Portfolio, ok = d.integer()
		case "weights":
			g.Weights = new(WeightsSpec)
			bit, ok = 1<<10, d.weightsObject(g.Weights)
		case "member_weights":
			bit, ok = 1<<11, d.weightsArray(&g.MemberWeights)
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
}

func (d *wireDecoder) queries(req *instantiateRequest) bool {
	if !d.next('[') {
		return false
	}
	d.maxQueries = (bytes.Count(d.b, []byte{'['}) - 1) / 2
	qs := make([]dimQuery, 0, d.maxQueries)
	if !d.next(']') {
		for {
			d.space()
			qs = append(qs, dimQuery{})
			if !d.query(&qs[len(qs)-1]) {
				return false
			}
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return false
			}
		}
	}
	req.Queries = qs
	return true
}

func (d *wireDecoder) query(q *dimQuery) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		var bit uint8
		ok := false
		switch string(k) {
		case "ws":
			bit = 1
			q.Ws, ok = d.intArray()
		case "hs":
			bit = 2
			q.Hs, ok = d.intArray()
		case "weights":
			bit = 4
			if d.weights == nil {
				d.weights = make([]WeightsSpec, 0, d.maxQueries)
			}
			d.weights = append(d.weights, WeightsSpec{})
			q.Weights = &d.weights[len(d.weights)-1]
			ok = d.weightsObject(q.Weights)
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
}

func (d *wireDecoder) weightsObject(w *WeightsSpec) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		var bit uint8
		var f *float64
		switch string(k) {
		case "wire":
			bit, f = 1, &w.Wire
		case "area":
			bit, f = 2, &w.Area
		case "aspect":
			bit, f = 4, &w.Aspect
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		lit, ok := d.number()
		if !ok {
			return false
		}
		// encoding/json parses float fields with this same call and
		// rejects the value on any error.
		v, err := strconv.ParseFloat(string(lit), 64)
		*f = v
		return err == nil
	})
}

// weightsArray parses an array of weights objects into *ws. An empty
// array yields an empty, non-nil slice, as encoding/json decodes it.
func (d *wireDecoder) weightsArray(ws *[]WeightsSpec) bool {
	if !d.next('[') {
		return false
	}
	out := []WeightsSpec{}
	if !d.next(']') {
		for {
			d.space()
			out = append(out, WeightsSpec{})
			if !d.weightsObject(&out[len(out)-1]) {
				return false
			}
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return false
			}
		}
	}
	*ws = out
	return true
}

// intArray parses an array of integers into the arena, returning the
// sub-slice capped at its own length.
func (d *wireDecoder) intArray() ([]int, bool) {
	if !d.next('[') {
		return nil, false
	}
	start := len(d.ints)
	if !d.next(']') {
		for {
			d.space()
			v, ok := d.integer()
			if !ok {
				return nil, false
			}
			d.ints = append(d.ints, v)
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return nil, false
			}
		}
	}
	return d.ints[start:len(d.ints):len(d.ints)], true
}

// integer parses a JSON number without fraction or exponent that fits in
// an int — what encoding/json's strconv.ParseInt accepts for an int
// field. Anything else, overflow included, leaves the grammar.
func (d *wireDecoder) integer() (int, bool) {
	v, ok := d.integer64()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// integer64 is integer for an int64 field.
func (d *wireDecoder) integer64() (int64, bool) {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var u uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		u = u*10 + uint64(d.b[d.i]-'0')
	}
	digits := d.i - start
	// 19 digits cannot overflow u; a leading zero must stand alone; a
	// fraction or exponent makes the number a non-integer.
	if digits == 0 || digits > 19 || (d.b[start] == '0' && digits > 1) ||
		(d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E')) {
		return 0, false
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true // -(1<<63) wraps to itself: math.MinInt64
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// number returns the literal of a JSON number, checked against the JSON
// grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) number() ([]byte, bool) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.digits() == 0:
		return nil, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return nil, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

func (d *wireDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// str returns the contents of a string of printable ASCII without
// escapes — the only strings the grammar admits, because encoding/json
// would rewrite the rest (escapes, invalid UTF-8).
func (d *wireDecoder) str() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	d.i++
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text parses a str into *s.
func (d *wireDecoder) text(s *string) bool {
	v, ok := d.str()
	*s = string(v)
	return ok
}

// next skips whitespace and consumes c if it comes next.
func (d *wireDecoder) next(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *wireDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// respBufs recycles response buffers. A buffer grown past maxPooledResp
// by an unusually large batch is dropped rather than pinned in the pool.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 256 << 10

// buildInstantiateResponse builds the 200 answer to an instantiate batch
// in a pooled buffer, which writeInstantiateResponse writes and recycles.
func buildInstantiateResponse(key string, batch []mps.BatchResult) *[]byte {
	bp := respBufs.Get().(*[]byte)
	*bp = appendInstantiateResponse((*bp)[:0], key, batch)
	return bp
}

// writeInstantiateResponse writes a response buildInstantiateResponse
// built in one Write, then returns its buffer to the pool.
func writeInstantiateResponse(w http.ResponseWriter, bp *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp)
	if cap(*bp) <= maxPooledResp {
		respBufs.Put(bp)
	}
}

// appendInstantiateResponse appends what json.Encoder.Encode writes for
// map{"key", "results", "served"} with one result object per query:
// sorted top-level keys, the result fields in their historical struct
// order, x, y and error omitted when empty, and the trailing newline.
func appendInstantiateResponse(b []byte, key string, batch []mps.BatchResult) []byte {
	b = append(b, `{"key":`...)
	b = appendJSONString(b, key)
	b = append(b, `,"results":[`...)
	served := 0
	for i := range batch {
		br := &batch[i]
		if i > 0 {
			b = append(b, ',')
		}
		if br.Err != nil {
			b = append(b, `{"placement_id":-1,"member":-1,"from_backup":false`...)
			if msg := br.Err.Error(); msg != "" {
				b = append(b, `,"error":`...)
				b = appendJSONString(b, msg)
			}
			b = append(b, '}')
			continue
		}
		served++
		b = append(b, '{')
		if len(br.X) > 0 {
			b = append(b, `"x":`...)
			b = appendInts(b, br.X)
			b = append(b, ',')
		}
		if len(br.Y) > 0 {
			b = append(b, `"y":`...)
			b = appendInts(b, br.Y)
			b = append(b, ',')
		}
		b = append(b, `"placement_id":`...)
		b = strconv.AppendInt(b, int64(br.PlacementID), 10)
		b = append(b, `,"member":`...)
		b = strconv.AppendInt(b, int64(br.Member), 10)
		b = append(b, `,"from_backup":`...)
		b = strconv.AppendBool(b, br.FromBackup)
		b = append(b, '}')
	}
	b = append(b, `],"served":`...)
	b = strconv.AppendInt(b, int64(served), 10)
	return append(b, "}\n"...)
}

// appendJSONString appends s as encoding/json writes it, HTML escaping
// and invalid-UTF-8 replacement included.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
