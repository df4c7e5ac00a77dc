package ue

import (
	"math"
	"math/cmplx"
	"testing"

	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
)

// refDownshift is the per-sample cmplx.Exp mixer that downshift replaced,
// kept verbatim as the reference (with its own output slice).
func refDownshift(ov int, x []complex128, startSample int) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		ph := -2 * math.Pi * float64((startSample+i)%ov) / float64(ov)
		out[i] = x[i] * cmplx.Exp(complex(0, ph))
	}
	return out
}

// sameBits reports whether a and b carry identical float64 bits in both
// components, any NaN matching any NaN: the payload a NaN operand leaves
// depends on the operand order the compiler picks, and no output shows it.
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// downshiftDemod builds just the state downshift reads, for any
// oversampling factor.
func downshiftDemod(ov, n int) *ScatterDemod {
	return &ScatterDemod{
		cfg:   ScatterConfig{Params: ltephy.Params{Oversample: ov}},
		mixer: mixerTable(ov),
		scrZ:  make([]complex128, n),
	}
}

// TestMixerTable checks every phasor of the table against the expression it
// caches, over the remainders a negative or positive position can give.
func TestMixerTable(t *testing.T) {
	for _, ov := range []int{1, 2, 3, 4, 8} {
		tab := mixerTable(ov)
		if len(tab) != 2*ov-1 {
			t.Fatalf("ov=%d: %d phasors, want %d", ov, len(tab), 2*ov-1)
		}
		for m := -(ov - 1); m < ov; m++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(m)/float64(ov)))
			if got := tab[m+ov-1]; !sameBits(got, want) {
				t.Errorf("ov=%d m=%d: %v, want %v", ov, m, got, want)
			}
		}
	}
}

// TestDownshiftMatchesReference requires bit-identical mixer output for
// negative, zero and large stream anchors at every oversampling factor the
// receiver can run, signed-zero and non-finite samples included.
func TestDownshiftMatchesReference(t *testing.T) {
	r := rng.New(3)
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = r.Complex(1)
	}
	x[0] = complex(math.Copysign(0, -1), 0)
	x[1] = complex(math.Inf(1), math.NaN())
	x[2] = complex(1e308, -1e308)
	for _, ov := range []int{1, 2, 3, 4, 8} {
		d := downshiftDemod(ov, len(x))
		for _, start := range []int{-1 << 40, -1001, -17, -1, 0, 1, 5, 23039, 1 << 40} {
			got := d.downshift(x, start)
			want := refDownshift(ov, x, start)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("ov=%d start=%d sample %d: %v, want %v", ov, start, i, got[i], want[i])
				}
			}
		}
	}
	// The constructor builds the table for the configured factor.
	p := ltephy.DefaultParams(ltephy.BW1_4)
	d := NewScatterDemod(DefaultScatterConfig(p))
	n := p.Oversample * p.BW.SamplesPerSubframe()
	sf := make([]complex128, n)
	for i := range sf {
		sf[i] = r.Complex(1)
	}
	want := refDownshift(p.Oversample, sf, 3*n)
	for i, v := range d.downshift(sf, 3*n) {
		if !sameBits(v, want[i]) {
			t.Fatalf("NewScatterDemod sample %d: %v, want %v", i, v, want[i])
		}
	}
}

// BenchmarkDownshift mixes one 5 MHz subframe at the default oversampling
// with the phasor table (fast) and with cmplx.Exp per sample (ref).
func BenchmarkDownshift(b *testing.B) {
	p := ltephy.DefaultParams(ltephy.BW5)
	n := p.Oversample * p.BW.SamplesPerSubframe()
	x := make([]complex128, n)
	r := rng.New(4)
	for i := range x {
		x[i] = r.Complex(1)
	}
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			downshiftSink = refDownshift(p.Oversample, x, i*n)
		}
	})
	b.Run("fast", func(b *testing.B) {
		d := downshiftDemod(p.Oversample, n)
		for i := 0; i < b.N; i++ {
			downshiftSink = d.downshift(x, i*n)
		}
	})
}

var downshiftSink []complex128
