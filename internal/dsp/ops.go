package dsp

import (
	"math"
	"math/cmplx"
)

// Energy returns the sum of |x[i]|^2.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the mean of |x[i]|^2, or 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Scale multiplies every sample by the (real) gain g in place and returns x.
func Scale(x []complex128, g float64) []complex128 {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// ScaleTo rescales x in place so its mean power equals target and returns x.
// An all-zero input is returned unchanged.
func ScaleTo(x []complex128, target float64) []complex128 {
	p := Power(x)
	if p == 0 {
		return x
	}
	return Scale(x, math.Sqrt(target/p))
}

// Add accumulates src into dst element-wise. The slices must be equal length.
func Add(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("dsp: Add length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Mix multiplies x in place by exp(i*(2*pi*freq/sampleRate*n + phase0)),
// shifting its spectrum by +freq Hz, and returns x. The recurrence uses a
// complex phasor multiply per sample with periodic renormalization so long
// streams do not accumulate amplitude drift.
func Mix(x []complex128, freq, sampleRate, phase0 float64) []complex128 {
	step := cmplx.Exp(complex(0, 2*math.Pi*freq/sampleRate))
	ph := cmplx.Exp(complex(0, phase0))
	for i := range x {
		x[i] *= ph
		ph *= step
		if i&0x3ff == 0x3ff {
			// renormalize to unit magnitude
			ph /= complex(cmplx.Abs(ph), 0)
		}
	}
	return x
}

// MaxAbsIndex returns the index and magnitude of the sample with the largest
// absolute value. It panics on an empty slice.
func MaxAbsIndex(x []complex128) (int, float64) {
	if len(x) == 0 {
		panic("dsp: MaxAbsIndex of empty slice")
	}
	best, bestMag := 0, 0.0
	for i, v := range x {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > bestMag {
			best, bestMag = i, m
		}
	}
	return best, math.Sqrt(bestMag)
}

// CrossCorrelate returns c[lag] = sum_n x[n+lag] * conj(ref[n]) for
// lag in [0, len(x)-len(ref)]. It is the direct O(N*M) form, kept as the
// reference implementation the FFT engine in correlate.go is pinned against
// (and as the production path below the crossover, where it wins on
// constant factors). Hot callers with long references should use a
// CorrelatorBank instead.
func CrossCorrelate(x, ref []complex128) []complex128 {
	if len(ref) == 0 || len(x) < len(ref) {
		return nil
	}
	out := make([]complex128, len(x)-len(ref)+1)
	for lag := range out {
		var acc complex128
		seg := x[lag : lag+len(ref)]
		for n, r := range ref {
			acc += seg[n] * cmplxConj(r)
		}
		out[lag] = acc
	}
	return out
}

// Conj conjugates x in place and returns it.
func Conj(x []complex128) []complex128 {
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	return x
}
