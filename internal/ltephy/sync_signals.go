package ltephy

import (
	"math"
	"math/cmplx"
)

// pssRoots are the Zadoff-Chu root indices for NID2 = 0, 1, 2 (TS 36.211
// Table 6.11.1.1-1).
var pssRoots = [3]int{25, 29, 34}

// PSS returns the 62-element frequency-domain primary synchronization
// sequence for root index nid2 (0..2): the length-63 Zadoff-Chu sequence
// with the middle element punctured, per TS 36.211 §6.11.1.1.
func PSS(nid2 int) []complex128 {
	if nid2 < 0 || nid2 > 2 {
		panic("ltephy: NID2 out of [0,2]")
	}
	u := float64(pssRoots[nid2])
	d := make([]complex128, 62)
	for n := 0; n < 31; n++ {
		ph := -math.Pi * u * float64(n) * float64(n+1) / 63
		d[n] = cmplx.Exp(complex(0, ph))
	}
	for n := 31; n < 62; n++ {
		ph := -math.Pi * u * float64(n+1) * float64(n+2) / 63
		d[n] = cmplx.Exp(complex(0, ph))
	}
	return d
}

// sssShiftRegister generates the length-31 binary m-sequence for the given
// feedback taps (bit positions that XOR into the new bit), initial state
// x(0..4) = (0,0,0,0,1).
func sssShiftRegister(taps []int) []byte {
	x := make([]byte, 31)
	x[4] = 1
	for i := 0; i+5 < 31; i++ {
		var v byte
		for _, t := range taps {
			v ^= x[i+t]
		}
		x[i+5] = v
	}
	return x
}

// bipolar converts a binary sequence to ±1 values: 1 - 2x.
func bipolar(x []byte) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = 1 - 2*float64(v)
	}
	return out
}

// SSS returns the 62-element secondary synchronization sequence for the
// given cell identity group nid1 (0..167), PSS index nid2 (0..2) and
// subframe (0 or 5), per TS 36.211 §6.11.2.1.
func SSS(nid1, nid2, subframe int) []float64 {
	if nid1 < 0 || nid1 > 167 {
		panic("ltephy: NID1 out of [0,167]")
	}
	if nid2 < 0 || nid2 > 2 {
		panic("ltephy: NID2 out of [0,2]")
	}
	if subframe != 0 && subframe != 5 {
		panic("ltephy: SSS only transmitted in subframes 0 and 5")
	}
	// m0, m1 from NID1 (TS 36.211 Table 6.11.2.1-1 construction).
	qp := nid1 / 30
	q := (nid1 + qp*(qp+1)/2) / 30
	mPrime := nid1 + q*(q+1)/2
	m0 := mPrime % 31
	m1 := (m0 + mPrime/31 + 1) % 31

	sTilde := bipolar(sssShiftRegister([]int{2, 0}))       // x^5+x^3+1 (s)
	cTilde := bipolar(sssShiftRegister([]int{3, 0}))       // x^5+x^4+1 (c)
	zTilde := bipolar(sssShiftRegister([]int{4, 2, 1, 0})) // z

	s := func(m, n int) float64 { return sTilde[(n+m)%31] }
	c0 := func(n int) float64 { return cTilde[(n+nid2)%31] }
	c1 := func(n int) float64 { return cTilde[(n+nid2+3)%31] }
	z1 := func(m, n int) float64 { return zTilde[(n+m%8)%31] }

	a, b := m0, m1
	if subframe == 5 {
		a, b = m1, m0
	}
	d := make([]float64, 62)
	for n := 0; n < 31; n++ {
		d[2*n] = s(a, n) * c0(n)
		d[2*n+1] = s(b, n) * c1(n) * z1(a, n)
	}
	return d
}
