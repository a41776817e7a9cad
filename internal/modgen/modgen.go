// Package modgen provides parametric module generators: functions from
// electrical device parameters (transistor W/L, capacitance, resistance) to
// the integer width and height of the rectangular layout block a procedural
// generator would produce.
//
// In the paper's flow (Fig. 1b) the sizing optimizer proposes device sizes;
// module generator functions translate them into block dimensions, which are
// then fed to the multi-placement structure. The real generators are
// proprietary layout programs; these models preserve the properties the
// placer cares about: monotone, realistically-shaped (w, h) responses.
package modgen

import (
	"fmt"
	"math"
)

// FloatRange is an inclusive range of a real-valued device parameter.
type FloatRange struct {
	Lo, Hi float64
}

// Clamp limits v to the range.
func (r FloatRange) Clamp(v float64) float64 {
	if v < r.Lo {
		return r.Lo
	}
	if v > r.Hi {
		return r.Hi
	}
	return v
}

// Lerp maps t in [0,1] onto the range.
func (r FloatRange) Lerp(t float64) float64 { return r.Lo + t*(r.Hi-r.Lo) }

// Generator maps a device parameter vector to block dimensions in layout
// units. Implementations must be pure functions: identical parameters yield
// identical dimensions.
type Generator interface {
	// Name identifies the generator kind (for diagnostics).
	Name() string
	// NumParams returns the length of the parameter vector Dims expects.
	NumParams() int
	// ParamRanges returns the legal range of each parameter.
	ParamRanges() []FloatRange
	// Dims returns the block width and height for the given parameters.
	// Parameters outside their ranges are clamped.
	Dims(params []float64) (w, h int)
}

// unitsPerMicron converts micron-denominated device geometry to integer
// layout units. One unit = 0.25 µm.
const unitsPerMicron = 4.0

// MOS is a folded single-transistor generator. Parameters:
//
//	0: total gate width W in µm
//	1: gate length L in µm
//
// Folding is chosen automatically to keep the block near the target aspect
// ratio: the device is split into fingers of height W/folds, laid side by
// side. Diffusion/contact overheads are modelled as constant margins.
type MOS struct {
	WRange FloatRange // legal total width, µm
	LRange FloatRange // legal length, µm
	Aspect float64    // target w/h aspect ratio, default 1
}

// NewMOS returns a MOS generator with the given W and L ranges.
func NewMOS(wLo, wHi, lLo, lHi float64) *MOS {
	return &MOS{WRange: FloatRange{wLo, wHi}, LRange: FloatRange{lLo, lHi}, Aspect: 1}
}

// Name implements Generator.
func (m *MOS) Name() string { return "mos" }

// NumParams implements Generator.
func (m *MOS) NumParams() int { return 2 }

// ParamRanges implements Generator.
func (m *MOS) ParamRanges() []FloatRange { return []FloatRange{m.WRange, m.LRange} }

// Dims implements Generator.
func (m *MOS) Dims(params []float64) (w, h int) {
	W := m.WRange.Clamp(params[0])
	L := m.LRange.Clamp(params[1])
	aspect := m.Aspect
	if aspect <= 0 {
		aspect = 1
	}
	// Choose the fold count that brings finger height close to the width a
	// folds-wide gate stack would have, targeting the aspect ratio.
	const pitchOverhead = 1.0 // µm of contact+spacing per finger
	const margin = 2.0        // µm of well/guard margin per side
	folds := int(math.Round(math.Sqrt(W * aspect / (L + pitchOverhead))))
	if folds < 1 {
		folds = 1
	}
	fingerH := W / float64(folds)
	wMicron := float64(folds)*(L+pitchOverhead) + 2*margin
	hMicron := fingerH + 2*margin
	return ceilUnits(wMicron), ceilUnits(hMicron)
}

// MatchedPair generates a common-centroid matched pair (differential pair or
// current mirror): two devices interdigitated in a 2 x folds array.
// Parameters are the same as MOS (per-device W, L).
type MatchedPair struct {
	WRange FloatRange
	LRange FloatRange
}

// NewMatchedPair returns a MatchedPair generator.
func NewMatchedPair(wLo, wHi, lLo, lHi float64) *MatchedPair {
	return &MatchedPair{WRange: FloatRange{wLo, wHi}, LRange: FloatRange{lLo, lHi}}
}

// Name implements Generator.
func (m *MatchedPair) Name() string { return "matched-pair" }

// NumParams implements Generator.
func (m *MatchedPair) NumParams() int { return 2 }

// ParamRanges implements Generator.
func (m *MatchedPair) ParamRanges() []FloatRange { return []FloatRange{m.WRange, m.LRange} }

// Dims implements Generator.
func (m *MatchedPair) Dims(params []float64) (w, h int) {
	W := m.WRange.Clamp(params[0])
	L := m.LRange.Clamp(params[1])
	const pitchOverhead = 1.0
	const margin = 2.5 // common-centroid guard rings cost more margin
	// Interdigitation ABBA: total 2W of gate folded into an even count.
	folds := int(math.Round(math.Sqrt(2 * W / (L + pitchOverhead))))
	folds += folds % 2 // even fold counts preserve the common centroid
	if folds < 2 {
		folds = 2
	}
	fingerH := 2 * W / float64(folds)
	wMicron := float64(folds)*(L+pitchOverhead) + 2*margin
	hMicron := fingerH + 2*margin
	return ceilUnits(wMicron), ceilUnits(hMicron)
}

// MIMCap generates a square-ish metal-insulator-metal capacitor.
// Parameter 0: capacitance in pF.
type MIMCap struct {
	CRange FloatRange // pF
	// DensityFFPerUm2 is the capacitance density; default 1 fF/µm².
	DensityFFPerUm2 float64
}

// NewMIMCap returns a MIMCap generator for the given capacitance range.
func NewMIMCap(cLo, cHi float64) *MIMCap {
	return &MIMCap{CRange: FloatRange{cLo, cHi}, DensityFFPerUm2: 1}
}

// Name implements Generator.
func (c *MIMCap) Name() string { return "mim-cap" }

// NumParams implements Generator.
func (c *MIMCap) NumParams() int { return 1 }

// ParamRanges implements Generator.
func (c *MIMCap) ParamRanges() []FloatRange { return []FloatRange{c.CRange} }

// Dims implements Generator.
func (c *MIMCap) Dims(params []float64) (w, h int) {
	C := c.CRange.Clamp(params[0])
	density := c.DensityFFPerUm2
	if density <= 0 {
		density = 1
	}
	areaUm2 := C * 1000 / density // pF -> fF
	side := math.Sqrt(areaUm2)
	const margin = 1.5
	n := ceilUnits(side + 2*margin)
	return n, n
}

// PolyRes generates a serpentine polysilicon resistor.
// Parameter 0: resistance in kΩ.
type PolyRes struct {
	RRange FloatRange // kΩ
	// SheetOhms is the sheet resistance; default 50 Ω/sq.
	SheetOhms float64
	// StripWidthUm is the resistor strip width; default 1 µm.
	StripWidthUm float64
}

// NewPolyRes returns a PolyRes generator for the given resistance range.
func NewPolyRes(rLo, rHi float64) *PolyRes {
	return &PolyRes{RRange: FloatRange{rLo, rHi}, SheetOhms: 50, StripWidthUm: 1}
}

// Name implements Generator.
func (r *PolyRes) Name() string { return "poly-res" }

// NumParams implements Generator.
func (r *PolyRes) NumParams() int { return 1 }

// ParamRanges implements Generator.
func (r *PolyRes) ParamRanges() []FloatRange { return []FloatRange{r.RRange} }

// Dims implements Generator.
func (r *PolyRes) Dims(params []float64) (w, h int) {
	R := r.RRange.Clamp(params[0])
	sheet := r.SheetOhms
	if sheet <= 0 {
		sheet = 50
	}
	strip := r.StripWidthUm
	if strip <= 0 {
		strip = 1
	}
	squares := R * 1000 / sheet
	lengthUm := squares * strip
	// Fold the strip into a near-square serpentine with 1µm gaps.
	turns := math.Max(1, math.Round(math.Sqrt(lengthUm*strip/(strip+1))/strip))
	segment := lengthUm / turns
	const margin = 1.0
	wMicron := segment + 2*margin
	hMicron := turns*(strip+1) + 2*margin
	return ceilUnits(wMicron), ceilUnits(hMicron)
}

// Scalable is a generic one-parameter generator that sweeps a block between
// its minimum and maximum dimensions. Parameter 0 in [0,1] is the size knob;
// width grows linearly while height grows with the given exponent, modelling
// generators whose aspect ratio drifts with size. It is the default binding
// for blocks without an electrical model.
type Scalable struct {
	WMin, WMax int
	HMin, HMax int
	// HExponent shapes height growth; default 1 (linear).
	HExponent float64
}

// Name implements Generator.
func (s *Scalable) Name() string { return "scalable" }

// NumParams implements Generator.
func (s *Scalable) NumParams() int { return 1 }

// ParamRanges implements Generator.
func (s *Scalable) ParamRanges() []FloatRange { return []FloatRange{{0, 1}} }

// Dims implements Generator.
func (s *Scalable) Dims(params []float64) (w, h int) {
	t := FloatRange{0, 1}.Clamp(params[0])
	exp := s.HExponent
	if exp <= 0 {
		exp = 1
	}
	w = s.WMin + int(math.Round(t*float64(s.WMax-s.WMin)))
	h = s.HMin + int(math.Round(math.Pow(t, exp)*float64(s.HMax-s.HMin)))
	return w, h
}

func ceilUnits(micron float64) int {
	u := int(math.Ceil(micron * unitsPerMicron))
	if u < 1 {
		u = 1
	}
	return u
}

func checkParams(g Generator, params []float64) error {
	if len(params) != g.NumParams() {
		return fmt.Errorf("modgen: %s wants %d params, got %d", g.Name(), g.NumParams(), len(params))
	}
	return nil
}
