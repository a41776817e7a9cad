package core

import (
	"fmt"
	"math"
	"testing"
)

// findSpanScan is findSpan's reference: row r's spans tested one by one.
func findSpanScan(t *rowTable, r, v int) int {
	for s := int(t.rowStart[r]); s < int(t.rowStart[r+1]); s++ {
		if int(t.spanLo[s]) <= v && v <= int(t.spanHi[s]) {
			return s
		}
	}
	return -1
}

// spanRows builds a maskless rowTable whose row r holds rows[r]'s spans,
// each {Lo, Hi}; a nil row is empty.
func spanRows(rows ...[][2]int32) *rowTable {
	t := &rowTable{rowStart: []int32{0}}
	for _, row := range rows {
		for _, sp := range row {
			t.spanLo = append(t.spanLo, sp[0])
			t.spanHi = append(t.spanHi, sp[1])
		}
		t.rowStart = append(t.rowStart, int32(len(t.spanLo)))
	}
	return t
}

// probeSet collects findSpan probes, dropping those outside the int range
// (which is narrower than int64 where int is 32 bits wide).
type probeSet []int

func (p *probeSet) add(vs ...int64) {
	for _, v := range vs {
		if v >= math.MinInt && v <= math.MaxInt {
			*p = append(*p, int(v))
		}
	}
}

// checkFindSpan compares findSpan with the scan on row r: at every value
// from two below the row's first Lo to two above its last Hi (at every
// breakpoint ±2 instead when the row reaches over more than 1<<16
// values), and at the ends of the int and int32 ranges. On a row of
// unit-width spans without gaps it also requires the span at v to be the
// row's first plus v − Lo_first.
func checkFindSpan(t *rowTable, r int) error {
	first, end := int(t.rowStart[r]), int(t.rowStart[r+1])
	var probes probeSet
	probes.add(math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, 0)
	dense := false
	if first < end {
		lo, hi := int64(t.spanLo[first]), int64(t.spanHi[end-1])
		dense = hi-lo == int64(end-first-1)
		if hi-lo <= 1<<16 {
			for v := lo - 2; v <= hi+2; v++ {
				probes.add(v)
			}
		} else {
			for s := first; s < end; s++ {
				for d := int64(-2); d <= 2; d++ {
					probes.add(int64(t.spanLo[s])+d, int64(t.spanHi[s])+d)
				}
			}
		}
	}
	for _, v := range probes {
		got, want := t.findSpan(r, v), findSpanScan(t, r, v)
		if got != want {
			return fmt.Errorf("row %d, v=%d: findSpan %d, scan %d", r, v, got, want)
		}
		if dense && want >= 0 && got != first+(v-int(t.spanLo[first])) {
			return fmt.Errorf("dense row %d, v=%d: findSpan %d, want first span %d + %d",
				r, v, got, first, v-int(t.spanLo[first]))
		}
	}
	return nil
}

// CheckFindSpan runs checkFindSpan on every row of the compiled index.
func CheckFindSpan(cs *CompiledStructure) error {
	for r := 0; r < 2*cs.n; r++ {
		if err := checkFindSpan(&cs.rowTable, r); err != nil {
			return err
		}
	}
	return nil
}

// TestFindSpanHandBuiltRows: findSpan agrees with the scan on rows of
// every shape its window reasoning covers — dense, with gaps, with wide
// spans, a single span, empty rows first, between and last, and spans at
// the int32 extremes.
func TestFindSpanHandBuiltRows(t *testing.T) {
	const lo32, hi32 = math.MinInt32, math.MaxInt32
	var wideUnder [][2]int32 // one wide span under 100 unit spans
	wideUnder = append(wideUnder, [2]int32{0, 99})
	for v := int32(100); v < 200; v++ {
		wideUnder = append(wideUnder, [2]int32{v, v})
	}
	tab := spanRows(
		nil,
		[][2]int32{{5, 5}, {6, 6}, {7, 7}, {8, 8}},
		[][2]int32{{5, 5}, {6, 6}, {8, 8}, {9, 9}},
		[][2]int32{{-9, -9}, {-7, -7}, {-3, -2}, {0, 0}, {4, 4}, {10, 10}},
		[][2]int32{{0, 3}, {4, 4}, {5, 11}, {12, 13}, {20, 40}, {41, 41}},
		wideUnder,
		[][2]int32{{17, 17}},
		nil,
		[][2]int32{{lo32, lo32}, {lo32 + 1, -1}, {0, 0}, {1, hi32 - 1}, {hi32, hi32}},
		[][2]int32{{lo32, hi32}},
		[][2]int32{{lo32, lo32 + 2}, {hi32 - 2, hi32}},
		[][2]int32{{hi32 - 3, hi32 - 3}, {hi32 - 2, hi32 - 2}, {hi32 - 1, hi32 - 1}, {hi32, hi32}},
		nil,
	)
	for r := 0; r+1 < len(tab.rowStart); r++ {
		if err := checkFindSpan(tab, r); err != nil {
			t.Error(err)
		}
	}
}

// FuzzFindSpan builds a row from a fuzzed start and (width, gap) byte
// pairs, both scaled by a fuzzed power of two so rows reach the int32
// extremes, sets it between two empty rows, and checks findSpan against
// the scan on all three at a fuzzed probe, the probe folded into the
// row's range, every breakpoint ±1 and the ends of the int range.
func FuzzFindSpan(f *testing.F) {
	f.Add(int32(5), []byte{0, 0, 0, 0, 0, 0}, uint8(0), int64(6))
	f.Add(int32(-9), []byte{0, 1, 0, 3, 1, 1, 0, 3, 0, 5}, uint8(0), int64(-8))
	f.Add(int32(0), []byte{99, 0, 0, 0, 0, 0, 0, 0}, uint8(0), int64(50))
	f.Add(int32(math.MinInt32), []byte{255, 255, 3, 0, 0, 9}, uint8(24), int64(math.MaxInt64))
	f.Add(int32(math.MaxInt32-3), []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), int64(math.MaxInt32))
	f.Fuzz(func(t *testing.T, start int32, layout []byte, shift uint8, probe int64) {
		scale := int64(1) << (shift % 32)
		var row [][2]int32
		for lo, i := int64(start), 0; i+1 < len(layout) && lo <= math.MaxInt32; i += 2 {
			hi := lo + int64(layout[i])*scale
			if hi > math.MaxInt32 {
				break
			}
			row = append(row, [2]int32{int32(lo), int32(hi)})
			lo = hi + 1 + int64(layout[i+1])*scale
		}
		tab := spanRows(nil, row, nil)
		var probes probeSet
		probes.add(probe, math.MinInt64, math.MaxInt64)
		if len(row) > 0 {
			lo, hi := int64(row[0][0]), int64(row[len(row)-1][1])
			probes.add(lo - 1 + (probe%(hi-lo+3)+(hi-lo+3))%(hi-lo+3))
		}
		for _, sp := range row {
			for _, b := range sp {
				probes.add(int64(b)-1, int64(b), int64(b)+1)
			}
		}
		for r := 0; r < 3; r++ {
			for _, v := range probes {
				if got, want := tab.findSpan(r, v), findSpanScan(tab, r, v); got != want {
					t.Fatalf("row %d of %v, v=%d: findSpan %d, scan %d", r, row, v, got, want)
				}
			}
		}
	})
}
