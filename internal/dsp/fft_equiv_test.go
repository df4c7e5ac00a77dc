package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refPlan is the power-of-two transform that the fused radix-2² kernel
// replaced, kept verbatim as the reference: one strided twiddle table, a
// copy plus in-place bit-reversal swaps, one pass per radix-2 stage, and
// Inverse as a conjugation pass, the forward kernel and a conjugate-and-scale
// pass.
type refPlan struct {
	n       int
	perm    []int
	twiddle []complex128
}

func newRefPlan(n int) *refPlan {
	p := &refPlan{n: n}
	p.perm = bitReversePerm(n)
	p.twiddle = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return p
}

func (p *refPlan) forwardPow2(dst, src []complex128) {
	n := p.n
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	// Bit-reversal permutation in place.
	for i, j := range p.perm {
		if i < j {
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				a := dst[k]
				b := dst[k+half] * w
				dst[k] = a + b
				dst[k+half] = a - b
			}
		}
	}
}

func (p *refPlan) Inverse(dst, src []complex128) {
	for i, v := range src {
		dst[i] = cmplxConj(v)
	}
	p.forwardPow2(dst, dst)
	scale := 1 / float64(p.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*scale, -imag(v)*scale)
	}
}

// refBluestein is bluestein with both sub-transforms on the reference
// kernel, so non-power-of-two sizes are pinned too.
func refBluestein(p *Plan, dst, src []complex128, inverse bool) {
	n, m := p.n, p.m
	sub := newRefPlan(m)
	a := make([]complex128, m)
	if inverse {
		for k := 0; k < n; k++ {
			a[k] = cmplxConj(src[k]) * p.chirp[k]
		}
	} else {
		for k := 0; k < n; k++ {
			a[k] = src[k] * p.chirp[k]
		}
	}
	sub.forwardPow2(a, a)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	for i := range a {
		a[i] = cmplxConj(a[i])
	}
	sub.forwardPow2(a, a)
	scale := 1 / float64(m)
	if inverse {
		for k := 0; k < n; k++ {
			v := cmplxConj(a[k]) * complex(scale, 0) * p.chirp[k]
			v = cmplxConj(v)
			dst[k] = complex(real(v)/float64(n), imag(v)/float64(n))
		}
		return
	}
	for k := 0; k < n; k++ {
		v := cmplxConj(a[k]) * complex(scale, 0)
		dst[k] = v * p.chirp[k]
	}
}

// sameBitsC reports whether a and b carry identical float64 bits in both
// components, any NaN matching any NaN: which operand's payload and sign a
// NaN result carries depends on the operand order the compiler picks for a
// commutative operation, and no output shows it (they print NaN).
func sameBitsC(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// checkFFTEquiv runs Forward and Inverse of the pow2 plan p against the
// reference on x, both into a separate buffer and in place, and fails on
// the first element whose bits differ.
func checkFFTEquiv(t *testing.T, p *Plan, ref *refPlan, x []complex128) {
	t.Helper()
	n := len(x)
	want := make([]complex128, n)
	got := make([]complex128, n)
	for _, inverse := range []bool{false, true} {
		if inverse {
			ref.Inverse(want, x)
		} else {
			ref.forwardPow2(want, x)
		}
		for _, alias := range []bool{false, true} {
			src := x
			if alias {
				copy(got, x)
				src = got
			}
			if inverse {
				p.Inverse(got, src)
			} else {
				p.Forward(got, src)
			}
			for i := range want {
				if !sameBitsC(got[i], want[i]) {
					t.Fatalf("n=%d inverse=%v alias=%v bin %d: %v, want %v", n, inverse, alias, i, got[i], want[i])
				}
			}
		}
	}
}

// fuzzSpecials are the inputs where a changed operation order would show:
// signed zeros, NaN, the infinities and values at the edge of overflow.
var fuzzSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64, 1, -1}

// FuzzFFTEquivalence pins the fused radix-2² kernel to the reference on
// every power-of-two size from 2 to 8192 (odd and even log2 n), for Forward
// and Inverse, into a separate buffer and in place. Samples come from the
// fuzz bytes, with some replaced by signed zeros, NaN and ±Inf.
func FuzzFFTEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	long := make([]byte, 4096)
	rng.Read(long)
	for logN := uint8(1); logN <= 13; logN++ {
		f.Add(long, logN, int64(logN), uint8(0))
	}
	f.Add(long[:64], uint8(5), int64(1), uint8(255))
	f.Add(long[:512], uint8(10), int64(2), uint8(16))
	f.Add([]byte{0, 128}, uint8(1), int64(3), uint8(128))
	f.Fuzz(func(t *testing.T, data []byte, logN uint8, seed int64, special uint8) {
		n := 1 << (1 + logN%13)
		r := rand.New(rand.NewSource(seed))
		iq := bytesToIQ(data)
		x := make([]complex128, n)
		for i := range x {
			if len(iq) > 0 {
				x[i] = iq[i%len(iq)]
			}
			if special > 0 && r.Intn(256) < int(special) {
				re := fuzzSpecials[r.Intn(len(fuzzSpecials))]
				im := fuzzSpecials[r.Intn(len(fuzzSpecials))]
				x[i] = complex(re, im)
			}
		}
		checkFFTEquiv(t, NewPlan(n), newRefPlan(n), x)
	})
}

// TestFFTEquivalenceSpecials runs every size from 1 to 8192 with random
// samples and with all-special inputs: a signed-zero vector, a single NaN
// and a single infinity.
func TestFFTEquivalenceSpecials(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 1; n <= 8192; n <<= 1 {
		p, ref := NewPlan(n), newRefPlan(n)
		checkFFTEquiv(t, p, ref, randIQ(r, n))
		negZero := make([]complex128, n)
		for i := range negZero {
			negZero[i] = complex(math.Copysign(0, -1), math.Copysign(0, float64(i%2*2-1)))
		}
		checkFFTEquiv(t, p, ref, negZero)
		for _, v := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(-1)), complex(math.Inf(1), math.Inf(1))} {
			x := randIQ(r, n)
			x[r.Intn(n)] = v
			checkFFTEquiv(t, p, ref, x)
		}
	}
}

// TestBluesteinMatchesReference pins Bluestein sizes, whose sub-plan runs
// the fused kernel, to the same algorithm on the reference kernel.
func TestBluesteinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{3, 5, 12, 100, 1536} {
		p := NewPlan(n)
		if p.pow2 {
			t.Fatalf("size %d is a power of two", n)
		}
		x := randIQ(r, n)
		got, want := make([]complex128, n), make([]complex128, n)
		for _, inverse := range []bool{false, true} {
			if inverse {
				p.Inverse(got, x)
			} else {
				p.Forward(got, x)
			}
			refBluestein(p, want, x, inverse)
			for i := range want {
				if !sameBitsC(got[i], want[i]) {
					t.Fatalf("n=%d inverse=%v bin %d: %v, want %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStageTwiddles checks the contiguous per-stage tables against the
// strided entries of the single table they were cut from.
func TestStageTwiddles(t *testing.T) {
	for _, n := range []int{2, 4, 8, 2048, 8192} {
		p, ref := NewPlan(n), newRefPlan(n)
		if len(p.twiddle) != n-1 {
			t.Fatalf("n=%d: %d twiddles, want %d", n, len(p.twiddle), n-1)
		}
		for h := 1; h < n; h <<= 1 {
			for k, w := range p.stageTw(h) {
				if want := ref.twiddle[k*(n/(2*h))]; !sameBitsC(w, want) {
					t.Fatalf("n=%d h=%d k=%d: %v, want %v", n, h, k, w, want)
				}
			}
		}
	}
}

// BenchmarkFFTKernels compares the fused kernel with the reference at the
// receiver's transform sizes (1.4, 5 and 20 MHz at 4x oversampling), in
// place as the overlap-save engine and Inverse use them.
func BenchmarkFFTKernels(b *testing.B) {
	for _, n := range []int{512, 2048, 8192} {
		x := randIQ(rand.New(rand.NewSource(1)), n)
		buf := make([]complex128, n)
		p, ref := NewPlan(n), newRefPlan(n)
		b.Run("ref/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				ref.forwardPow2(buf, buf)
			}
		})
		b.Run("fused/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				p.forwardPow2(buf, buf)
			}
		})
		b.Run("ref-inverse/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref.Inverse(buf, x)
			}
		})
		b.Run("fused-inverse/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Inverse(buf, x)
			}
		})
	}
}
