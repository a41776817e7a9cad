// Package geom provides the integer geometry primitives used throughout the
// placement engine: points, axis-aligned rectangles and inclusive integer
// intervals.
//
// All coordinates and dimensions are expressed in integer layout units
// ("lambda"), so every geometric comparison is exact and runs replay bit
// for bit across platforms. Rectangles are half-open boxes
// [X0,X1) x [Y0,Y1) so that abutting blocks do not overlap, while dimension
// intervals are inclusive [Lo,Hi] to match the paper's
// [wstart,wend]/[hstart,hend] notation.
package geom

import "fmt"

// Point is an integer location on the floorplan.
type Point struct {
	X, Y int
}

// Add returns the component-wise sum of p and q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is a half-open axis-aligned box [X0,X1) x [Y0,Y1).
// A Rect with X1 <= X0 or Y1 <= Y0 is empty.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// NewRect returns the rectangle anchored at (x, y) with width w and height h.
func NewRect(x, y, w, h int) Rect { return Rect{x, y, x + w, y + h} }

// W returns the width of r (zero for empty rects).
func (r Rect) W() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the height of r (zero for empty rects).
func (r Rect) H() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the area of r (zero for empty rects).
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// Empty reports whether r encloses no points.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Center returns the midpoint of r, rounded down.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Overlaps reports whether r and s share interior area.
// Abutting rectangles (shared edge) do not overlap.
func (r Rect) Overlaps(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Intersect returns the common area of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
}

// Union returns the smallest rectangle containing both r and s.
// The union with an empty rectangle is the other rectangle.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0), Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1), Y1: max(r.Y1, s.Y1),
	}
}

// Contains reports whether r contains the whole of s.
// Every rectangle contains the empty rectangle.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.X0 <= s.X0 && s.X1 <= r.X1 && r.Y0 <= s.Y0 && s.Y1 <= r.Y1
}

// ContainsPoint reports whether p lies inside r (half-open semantics).
func (r Rect) ContainsPoint(p Point) bool {
	return r.X0 <= p.X && p.X < r.X1 && r.Y0 <= p.Y && p.Y < r.Y1
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// BoundingBox returns the smallest rectangle containing all given rects.
// The bounding box of no rectangles is the empty rectangle.
func BoundingBox(rects []Rect) Rect {
	var bb Rect
	for _, r := range rects {
		bb = bb.Union(r)
	}
	return bb
}

// HPWL returns the half-perimeter wire length of the given points:
// (max x - min x) + (max y - min y). HPWL of fewer than two points is zero.
func HPWL(pts []Point) int {
	if len(pts) < 2 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
