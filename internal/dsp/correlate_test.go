package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randIQ returns n deterministic complex samples in the unit square.
func randIQ(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// maxAbs returns the largest magnitude in x (0 for empty).
func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// assertCorrEquiv checks got against the direct reference: same length,
// per-lag error within relTol of the vector's peak magnitude, and an
// identical argmax (or a genuine tie within tolerance).
func assertCorrEquiv(t *testing.T, got, want []complex128, relTol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	scale := maxAbs(want)
	if scale == 0 {
		scale = 1
	}
	for l := range want {
		if err := cmplx.Abs(got[l] - want[l]); err > relTol*scale {
			t.Fatalf("lag %d: |got-want| = %g exceeds %g (relative %g of peak %g)", l, err, relTol*scale, relTol, scale)
		}
	}
	gi, gm := MaxAbsIndex(got)
	wi, wm := MaxAbsIndex(want)
	if gi != wi && math.Abs(gm-wm) > 2*relTol*scale {
		t.Fatalf("argmax mismatch: got lag %d (%g), want lag %d (%g)", gi, gm, wi, wm)
	}
}

// oneRef builds the one-reference bank that serves single-reference callers.
func oneRef(ref []complex128) *CorrelatorBank {
	return NewCorrelatorBank([][]complex128{ref})
}

// The table spans both sides of the crossover, single-block and multi-block
// overlap-save, partial tail blocks, and the degenerate single-lag case.
var corrSizes = []struct {
	name string
	n, m int
}{
	{"direct_tiny", 64, 8},
	{"direct_crossover_minus", 4096, directCrossover - 1},
	{"fft_crossover", 4096, directCrossover},
	{"fft_single_block", 1024, 256},
	{"fft_multi_block", 10000, 256},
	{"fft_partial_tail", 2049, 512},
	{"fft_long_ref", 30000, 2048},
	{"single_lag", 512, 512},
	{"few_lags_fallback", 530, 512},
}

func TestCorrelatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range corrSizes {
		t.Run(tc.name, func(t *testing.T) {
			x := randIQ(rng, tc.n)
			ref := randIQ(rng, tc.m)
			want := CrossCorrelate(x, ref)
			c := oneRef(ref)
			got := c.CorrelateAll(nil, x)
			assertCorrEquiv(t, got[0], want, 1e-9)
			// Reusing a destination must give the same answer.
			got2 := c.CorrelateAll(got, x)
			assertCorrEquiv(t, got2[0], want, 1e-9)
		})
	}
}

func TestCorrelatorDegenerate(t *testing.T) {
	x := randIQ(rand.New(rand.NewSource(2)), 32)
	if got := oneRef(x).CorrelateAll(nil, x[:4]); got[0] != nil {
		t.Fatalf("one-reference bank with short stream: got %v, want nil", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCorrelatorBank with an empty reference did not panic")
		}
	}()
	oneRef(nil)
}

func TestCorrelatorBankMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{32, 256, 2048} {
		n := 6*m + 37
		x := randIQ(rng, n)
		refs := [][]complex128{randIQ(rng, m), randIQ(rng, m), randIQ(rng, m)}
		copy(x[2*m:], refs[1]) // plant root 1 so peaks are meaningful
		b := NewCorrelatorBank(refs)
		if b.RefLen() != m {
			t.Fatalf("bank reference length %d, want %d", b.RefLen(), m)
		}
		all := b.CorrelateAll(nil, x)
		if len(all) != len(refs) {
			t.Fatalf("m=%d: %d correlation vectors, want %d", m, len(all), len(refs))
		}
		for r, ref := range refs {
			assertCorrEquiv(t, all[r], CrossCorrelate(x, ref), 1e-9)
		}
		if lag, _ := MaxAbsIndex(all[1]); lag != 2*m {
			t.Fatalf("m=%d: planted root found at %d, want %d", m, lag, 2*m)
		}
	}
}

func TestCorrelatorBankDegenerate(t *testing.T) {
	refs := [][]complex128{randIQ(rand.New(rand.NewSource(5)), 16)}
	b := NewCorrelatorBank(refs)
	short := refs[0][:4]
	for _, v := range b.CorrelateAll(nil, short) {
		if v != nil {
			t.Fatal("CorrelateAll on short stream must yield nil vectors")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCorrelatorBank with mismatched lengths did not panic")
		}
	}()
	NewCorrelatorBank([][]complex128{refs[0], refs[0][:8]})
}

func TestAcquireReleaseBuf(t *testing.T) {
	for _, n := range []int{1, 7, 128, 1000, 4096} {
		p := AcquireBuf(n)
		if len(*p) != n {
			t.Fatalf("AcquireBuf(%d): len %d", n, len(*p))
		}
		for i := range *p {
			(*p)[i] = complex(float64(i), 0)
		}
		ReleaseBuf(p)
	}
	ReleaseBuf(nil) // must be a no-op
}

func TestFFTShiftInto(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 255} {
		x := randIQ(rand.New(rand.NewSource(int64(n))), n)
		got := FFTShiftInto(make([]complex128, n), x)
		// Output bin i holds input bin (i + ceil(n/2)) mod n.
		for i := range got {
			if want := x[(i+(n+1)/2)%n]; got[i] != want {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, i, got[i], want)
			}
		}
	}
}

func TestFIRProcessIntoInPlace(t *testing.T) {
	x := randIQ(rand.New(rand.NewSource(6)), 300)
	fresh := NewFIR([]float64{0.25, 0.5, 0.25}).Process(x)
	inPlace := append([]complex128(nil), x...)
	NewFIR([]float64{0.25, 0.5, 0.25}).ProcessInto(inPlace, inPlace)
	for i := range fresh {
		if fresh[i] != inPlace[i] {
			t.Fatalf("sample %d: in-place %v, fresh %v", i, inPlace[i], fresh[i])
		}
	}
}

// bytesToIQ decodes fuzz bytes into complex samples, two bytes per sample
// mapped into [-1, 1).
func bytesToIQ(data []byte) []complex128 {
	out := make([]complex128, len(data)/2)
	for i := range out {
		re := float64(data[2*i])/128 - 1
		im := float64(data[2*i+1])/128 - 1
		out[i] = complex(re, im)
	}
	return out
}

// FuzzCorrelatorEquivalence pins the bank's FFT overlap-save path to the direct
// reference implementation on arbitrary IQ streams and reference lengths:
// per-lag agreement within 1e-9 of the peak magnitude, and agreement of the
// correlation argmax up to genuine floating-point ties.
func FuzzCorrelatorEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 2048)
	rng.Read(long)
	f.Add(long, 150)       // FFT path, multi-block
	f.Add(long[:600], 260) // single lag beyond crossover? n=300,m=260: few-lags fallback
	f.Add(long[:64], 5)    // direct path
	f.Add([]byte{1, 2, 3, 4}, 0)
	f.Fuzz(func(t *testing.T, data []byte, refLen int) {
		x := bytesToIQ(data)
		if len(x) == 0 {
			return
		}
		m := refLen
		if m < 0 {
			m = -m
		}
		m = 1 + m%len(x)
		ref := x[len(x)-m:]
		want := CrossCorrelate(x, ref)
		got := oneRef(ref).CorrelateAll(nil, x)[0]
		assertCorrEquiv(t, got, want, 1e-9)
	})
}

// Crossover benchmarks: the direct form against the overlap-save engine
// across reference lengths at a fixed 40960-sample stream (one 1.4 MHz
// subframe's worth at 4x oversampling is 7680; 40960 exercises several
// blocks at every size). The crossover constant in correlate.go is chosen
// from these curves.

const benchStreamLen = 40960

func benchCorrelate(b *testing.B, m int, fft bool) {
	rng := rand.New(rand.NewSource(8))
	x := randIQ(rng, benchStreamLen)
	ref := randIQ(rng, m)
	dst := make([]complex128, benchStreamLen-m+1)
	b.ResetTimer()
	if fft {
		// Bypass the crossover policy so both sides of the break-even are
		// measured with the same destination handling.
		c := oneRef(ref)
		dsts := [][]complex128{dst}
		for i := 0; i < b.N; i++ {
			c.correlateFFT(dsts, x)
			corrSink = dst
		}
		return
	}
	for i := 0; i < b.N; i++ {
		directCorrelate(dst, x, ref)
		corrSink = dst
	}
}

var corrSink []complex128

func BenchmarkCorrelateDirect(b *testing.B) {
	for _, m := range []int{16, 64, 128, 256, 1024, 2048} {
		b.Run("M="+itoa(m), func(b *testing.B) { benchCorrelate(b, m, false) })
	}
}

func BenchmarkCorrelateFFT(b *testing.B) {
	for _, m := range []int{16, 64, 128, 256, 1024, 2048} {
		b.Run("M="+itoa(m), func(b *testing.B) { benchCorrelate(b, m, true) })
	}
}

// BenchmarkCorrelateBank measures the three-reference batch mode with
// 2048-sample references.
func BenchmarkCorrelateBank(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randIQ(rng, benchStreamLen)
	refs := [][]complex128{randIQ(rng, 2048), randIQ(rng, 2048), randIQ(rng, 2048)}
	bank := NewCorrelatorBank(refs)
	var dst [][]complex128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = bank.CorrelateAll(dst, x)
	}
	corrSink = dst[0]
}

// itoa avoids importing strconv just for benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
