// Package perf provides first-order analytic performance models for the
// layout-inclusive synthesis loop (paper Fig. 1b). The paper's flow couples
// a sizing optimizer to circuit simulation plus layout extraction; we
// substitute standard square-law hand equations for the two-stage Miller
// opamp with layout wire parasitics folded into the load and compensation
// nodes. The model only needs to be monotone and
// layout-sensitive for the loop to behave like the paper's.
package perf

import "math"

// Process constants for a generic 0.35µm-class CMOS process.
const (
	// KPn, KPp are the NMOS/PMOS transconductance parameters (A/V²).
	KPn = 170e-6
	KPp = 58e-6
	// LambdaV is the channel-length modulation coefficient at L = 1 µm
	// (1/V); scaled by 1/L for other lengths.
	LambdaV = 0.06
	// Vdd is the supply voltage (V).
	Vdd = 3.3
	// CwireFPerUnit is the parasitic capacitance of one layout unit of wire
	// (F). One unit = 0.25 µm at ~0.2 fF/µm.
	CwireFPerUnit = 0.05e-15
)

// TwoStageParams are the electrical design variables of the Miller opamp,
// mirroring modgen.TwoStageOpampSizer's vector layout.
type TwoStageParams struct {
	W1, L1 float64 // diff pair device (µm)
	W3, L3 float64 // mirror load device (µm)
	W5, L5 float64 // tail source (µm)
	W6, L6 float64 // output driver (µm)
	CcPF   float64 // compensation capacitor (pF)
	IbiasA float64 // tail bias current (A)
	CloadF float64 // external load (F)
}

// TwoStagePerf is the estimated performance of one sizing point.
type TwoStagePerf struct {
	GainDB         float64
	GBWHz          float64
	PhaseMarginDeg float64
	SlewVPerUs     float64
	PowerMW        float64
}

// ParamsFromVector converts a modgen.TwoStageOpampSizer sizing vector into
// electrical parameters with fixed bias and load.
func ParamsFromVector(x []float64) TwoStageParams {
	return TwoStageParams{
		W1: x[0], L1: x[1],
		W3: x[2], L3: x[3],
		W5: x[4], L5: x[5],
		W6: x[6], L6: x[7],
		CcPF:   x[8],
		IbiasA: 50e-6,
		CloadF: 2e-12,
	}
}

// EvalTwoStage evaluates the opamp at the given sizing point.
// wireOut and wireComp are layout wire lengths (in layout units) of the
// output net and the first-stage/compensation net; their parasitics load
// the corresponding poles, which is how placement quality feeds back into
// electrical performance.
func EvalTwoStage(p TwoStageParams, wireOutUnits, wireCompUnits int) TwoStagePerf {
	id1 := p.IbiasA / 2 // per diff-pair device
	id6 := p.IbiasA * 2 // output stage runs at 2x tail (mirror ratio)

	gm1 := gmOf(KPn, p.W1, p.L1, id1)
	gm6 := gmOf(KPn, p.W6, p.L6, id6)

	ro2 := roOf(p.L1, id1)
	ro4 := roOf(p.L3, id1)
	ro6 := roOf(p.L6, id6)
	ro7 := roOf(p.L5, id6)

	gain := gm1 * par(ro2, ro4) * gm6 * par(ro6, ro7)

	cWireComp := float64(wireCompUnits) * CwireFPerUnit
	cWireOut := float64(wireOutUnits) * CwireFPerUnit
	// Floor the capacitances at 1 fF so degenerate sizing points stay
	// finite (the optimizer sees a terrible-but-comparable value instead of
	// NaN poisoning the annealer).
	cc := math.Max(p.CcPF*1e-12+cWireComp, 1e-15)
	cl := math.Max(p.CloadF+cWireOut, 1e-15)

	gbw := gm1 / (2 * math.Pi * cc)
	p2 := gm6 / (2 * math.Pi * cl)
	// Phase margin from the non-dominant pole plus the RHP zero gm6/Cc.
	z1 := gm6 / (2 * math.Pi * cc)
	pm := 90 - rad2deg(math.Atan(gbw/p2)) - rad2deg(math.Atan(gbw/z1))

	return TwoStagePerf{
		GainDB:         20 * math.Log10(math.Max(gain, 1e-9)),
		GBWHz:          gbw,
		PhaseMarginDeg: pm,
		SlewVPerUs:     p.IbiasA / cc / 1e6,
		PowerMW:        (p.IbiasA + id6) * Vdd * 1e3,
	}
}

// Spec is a set of performance constraints for the synthesis example.
type Spec struct {
	MinGainDB  float64
	MinGBWHz   float64
	MinPMDeg   float64
	MinSlewVUs float64
	MaxPowerMW float64
}

// DefaultSpec is a moderate two-stage opamp target.
var DefaultSpec = Spec{
	MinGainDB:  65,
	MinGBWHz:   20e6,
	MinPMDeg:   55,
	MinSlewVUs: 10,
	MaxPowerMW: 2.0,
}

// Penalty returns a non-negative constraint-violation score: zero when all
// constraints are met, growing linearly with relative violation. The
// synthesis loop minimizes penalty plus its area/wire objective.
func (s Spec) Penalty(p TwoStagePerf) float64 {
	pen := 0.0
	pen += shortfall(p.GainDB, s.MinGainDB)
	pen += shortfall(p.GBWHz, s.MinGBWHz)
	pen += shortfall(p.PhaseMarginDeg, s.MinPMDeg)
	pen += shortfall(p.SlewVPerUs, s.MinSlewVUs)
	pen += excess(p.PowerMW, s.MaxPowerMW)
	return pen
}

// Met reports whether all constraints are satisfied.
func (s Spec) Met(p TwoStagePerf) bool { return s.Penalty(p) == 0 }

// shortfall returns the relative amount by which got misses a lower bound.
func shortfall(got, minWant float64) float64 {
	if minWant <= 0 || got >= minWant {
		return 0
	}
	return (minWant - got) / minWant
}

// excess returns the relative amount by which got exceeds an upper bound.
func excess(got, maxWant float64) float64 {
	if maxWant <= 0 || got <= maxWant {
		return 0
	}
	return (got - maxWant) / maxWant
}

// gmOf returns the square-law saturation transconductance.
func gmOf(kp, wUm, lUm, id float64) float64 {
	if lUm <= 0 || wUm <= 0 || id <= 0 {
		return 1e-12
	}
	return math.Sqrt(2 * kp * (wUm / lUm) * id)
}

// roOf returns the output resistance 1/(lambda * Id), with lambda ∝ 1/L.
func roOf(lUm, id float64) float64 {
	if lUm <= 0 || id <= 0 {
		return 1e12
	}
	lambda := LambdaV / lUm
	return 1 / (lambda * id)
}

func par(a, b float64) float64 { return a * b / (a + b) }

func rad2deg(r float64) float64 { return r * 180 / math.Pi }
