package core

// Failure-injection tests: corrupt a healthy structure's box table or a
// record in targeted ways and verify CheckInvariants reports each
// corruption class. These guard the
// debuggability story — a structure that silently violates eq. 5 would
// return wrong placements during synthesis with no error anywhere.

import (
	"strings"
	"testing"
)

// healthy builds a small structure with a few disjoint placements.
func healthy(t *testing.T) *Structure {
	t.Helper()
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	for _, iv := range [][2]int{{1, 20}, {30, 50}, {60, 90}} {
		if _, err := s.Insert(mk(1.0, iv, full(), full(), full())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("setup not healthy: %v", err)
	}
	return s
}

func TestDetectsOverlappingBoxes(t *testing.T) {
	s := healthy(t)
	// Widen placement 0's box so it overlaps placement 1's region
	// (simulating a partial-update bug).
	s.box(0)[1] = 40
	err := s.CheckInvariants()
	if err == nil {
		t.Fatal("overlapping boxes not detected")
	}
}

func TestDetectsEmptyBox(t *testing.T) {
	s := healthy(t)
	box := s.box(2)
	box[0], box[1] = 10, 5
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty box not detected: %v", err)
	}
}

func TestDetectsOutOfBoundsInterval(t *testing.T) {
	s := healthy(t)
	s.box(0)[5] = 9999 // block 1's width, way beyond designer max
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("out-of-bounds interval not detected")
	}
}

func TestDetectsGeometricOverlap(t *testing.T) {
	s := healthy(t)
	r := s.recs[0]
	// Move block 1 onto block 0: illegal at max dims.
	r.X[1], r.Y[1] = r.X[0], r.Y[0]
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("geometric overlap not detected")
	}
}

func TestDetectsAliveCountDrift(t *testing.T) {
	s := healthy(t)
	s.alive++ // accounting bug
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "alive") {
		t.Fatalf("alive-count drift not detected: %v", err)
	}
}

func TestDetectsDanglingRowReference(t *testing.T) {
	s := healthy(t)
	// Delete the record but leave its box table entry, from which the
	// rows are swept, untouched.
	s.recs[1] = nil
	s.alive--
	err := s.CheckInvariants()
	if err == nil {
		t.Fatal("dangling row reference not detected")
	}
}

func TestDetectsRowCorruption(t *testing.T) {
	s := healthy(t)
	// Register a stray interval for a live id directly in the box table,
	// the record every row is swept from: block 0's width row now claims
	// placement 0 on [25, 35], overlapping placement 1.
	box := s.box(0)
	box[0], box[1] = 25, 35
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("stray row registration not detected")
	}
}

// TestDetectsMarginViolation: a record whose anchors keep blocks apart
// but inside a spacing halo is illegal; CheckInvariants checks Get's
// copy, which carries the circuit's margins.
func TestDetectsMarginViolation(t *testing.T) {
	s := healthy(t)
	s.circuit.Blocks[0].Margin = 300 // the blocks sit 200 apart at (0,0) and (200,200)
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "spacing") {
		t.Fatalf("margin violation not detected: %v", err)
	}
}
