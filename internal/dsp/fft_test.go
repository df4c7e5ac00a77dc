package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"lscatter/internal/rng"
)

// naiveDFT is the O(N^2) reference implementation used to validate the fast
// transforms.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i := 0; i < n; i++ {
			angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			acc += x[i] * cmplx.Exp(complex(0, angle))
		}
		out[k] = acc
	}
	return out
}

func randomVector(r *rng.Source, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		x := randomVector(r, n)
		fast := FFT(x)
		slow := naiveDFT(x)
		if e := maxErr(fast, slow); e > 1e-8*float64(n) {
			t.Errorf("size %d: FFT differs from naive DFT by %v", n, e)
		}
	}
}

func TestBluesteinMatchesNaiveDFT(t *testing.T) {
	r := rng.New(2)
	// 1536 is the LTE 15 MHz FFT size; the rest stress odd/prime sizes.
	for _, n := range []int{3, 5, 6, 7, 12, 15, 31, 60, 96, 100, 1536} {
		x := randomVector(r, n)
		fast := FFT(x)
		slow := naiveDFT(x)
		if e := maxErr(fast, slow); e > 1e-7*float64(n) {
			t.Errorf("size %d: Bluestein FFT differs from naive DFT by %v", n, e)
		}
	}
}

// inverse is the normalized inverse DFT of x in a fresh slice.
func inverse(x []complex128) []complex128 {
	dst := make([]complex128, len(x))
	PlanFor(len(x)).Inverse(dst, x)
	return dst
}

func TestIFFTInvertsFFT(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 8, 64, 100, 1536, 2048} {
		x := randomVector(r, n)
		round := inverse(FFT(x))
		if e := maxErr(round, x); e > 1e-8*float64(n) {
			t.Errorf("size %d: Inverse(Forward(x)) differs from x by %v", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		sizes := []int{4, 12, 33, 64, 120, 128}
		n := sizes[r.Intn(len(sizes))]
		x := randomVector(r, n)
		return maxErr(inverse(FFT(x)), x) < 1e-7
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		sizes := []int{8, 60, 64, 100, 256}
		n := sizes[r.Intn(len(sizes))]
		x := randomVector(r, n)
		timeE := Energy(x)
		freqE := Energy(FFT(x)) / float64(n)
		return math.Abs(timeE-freqE) < 1e-6*timeE
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 64
		x := randomVector(r, n)
		y := randomVector(r, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + 2*y[i]
		}
		fx, fy, fsum := FFT(x), FFT(y), FFT(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(fx[i]+2*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	for _, n := range []int{16, 100} {
		x := make([]complex128, n)
		x[0] = 1
		for k, v := range FFT(x) {
			if cmplx.Abs(v-1) > 1e-9 {
				t.Fatalf("size %d: FFT of impulse bin %d = %v, want 1", n, k, v)
			}
		}
	}
}

func TestFFTOfToneIsSingleBin(t *testing.T) {
	n := 128
	bin := 5
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * float64(bin) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, angle))
	}
	spec := FFT(x)
	for k, v := range spec {
		mag := cmplx.Abs(v)
		if k == bin {
			if math.Abs(mag-float64(n)) > 1e-8 {
				t.Fatalf("tone bin magnitude = %v, want %d", mag, n)
			}
		} else if mag > 1e-8 {
			t.Fatalf("leakage in bin %d: %v", k, mag)
		}
	}
}

func TestForwardInPlaceAliasing(t *testing.T) {
	r := rng.New(4)
	x := randomVector(r, 256)
	want := FFT(x)
	p := PlanFor(256)
	buf := append([]complex128(nil), x...)
	p.Forward(buf, buf)
	if e := maxErr(buf, want); e > 1e-10 {
		t.Fatalf("in-place forward differs by %v", e)
	}
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	PlanFor(8).Forward(make([]complex128, 4), make([]complex128, 8))
}

func TestNewPlanRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(0) did not panic")
		}
	}()
	NewPlan(0)
}

func TestFFTShiftEven(t *testing.T) {
	x := []complex128{0, 1, 2, 3}
	want := []complex128{2, 3, 0, 1}
	got := FFTShiftInto(make([]complex128, len(x)), x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FFTShiftInto = %v, want %v", got, want)
		}
	}
}

func TestFFTShiftOdd(t *testing.T) {
	x := []complex128{0, 1, 2, 3, 4}
	got := FFTShiftInto(make([]complex128, len(x)), x)
	// DC (index 0) must land at the center position.
	if got[2] != 0 {
		t.Fatalf("FFTShiftInto odd: DC at wrong place: %v", got)
	}
}

func TestPlanForCachesPlans(t *testing.T) {
	if PlanFor(64) != PlanFor(64) {
		t.Fatal("PlanFor did not cache")
	}
}

func BenchmarkFFT2048(b *testing.B) {
	x := randomVector(rng.New(1), 2048)
	dst := make([]complex128, 2048)
	p := PlanFor(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}

func BenchmarkFFT8192(b *testing.B) {
	x := randomVector(rng.New(1), 8192)
	dst := make([]complex128, 8192)
	p := PlanFor(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}

func BenchmarkBluestein1536(b *testing.B) {
	x := randomVector(rng.New(1), 1536)
	dst := make([]complex128, 1536)
	p := PlanFor(1536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}
