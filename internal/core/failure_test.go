package core

// Failure-injection tests: corrupt a healthy structure in targeted ways and
// verify CheckInvariants reports each corruption class. These guard the
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
	// Widen placement 0's box so it overlaps placement 1's region without
	// touching the rows (simulating a partial-update bug).
	p := s.Get(0)
	p.WHi[0] = 40
	err := s.CheckInvariants()
	if err == nil {
		t.Fatal("overlapping boxes not detected")
	}
}

func TestDetectsRowDeregistrationDrift(t *testing.T) {
	s := healthy(t)
	// Shrink the placement's recorded interval without updating the row:
	// the row now claims validity outside the placement's box.
	p := s.Get(1)
	p.WLo[0] += 5
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("row drift not detected: %v", err)
	}
}

func TestDetectsEmptyBox(t *testing.T) {
	s := healthy(t)
	p := s.Get(2)
	p.WLo[0], p.WHi[0] = 10, 5
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty box not detected: %v", err)
	}
}

func TestDetectsOutOfBoundsInterval(t *testing.T) {
	s := healthy(t)
	p := s.Get(0)
	p.WHi[1] = 9999 // way beyond designer max
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("out-of-bounds interval not detected")
	}
}

func TestDetectsGeometricOverlap(t *testing.T) {
	s := healthy(t)
	p := s.Get(0)
	// Move block 1 onto block 0: illegal at max dims.
	p.X[1], p.Y[1] = p.X[0], p.Y[0]
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

func TestDetectsIDMismatch(t *testing.T) {
	s := healthy(t)
	s.Get(0).ID = 7
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "ID") {
		t.Fatalf("ID mismatch not detected: %v", err)
	}
}

func TestDetectsDanglingRowReference(t *testing.T) {
	s := healthy(t)
	// Delete the placement record but leave the rows untouched.
	s.placements[1] = nil
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
