package rng

import (
	"math"
	"testing"
)

// refNormFloat64 is the Box-Muller draw that NormFloat64 replaced, kept
// verbatim as the reference: separate math.Sin and math.Cos calls on the
// same angle.
func refNormFloat64(r *Source) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.gauss = mag * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*v)
}

// TestSincosMatchesSinCos requires math.Sincos to return the bits of
// math.Sin and math.Cos over the Box-Muller angle range [0, 2π): a uniform
// grid of 2^20 angles plus 2^20 angles built the way NormFloat64 builds
// them.
func TestSincosMatchesSinCos(t *testing.T) {
	const n = 1 << 20
	r := New(11)
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), want (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	for i := 0; i < n; i++ {
		check(2 * math.Pi * float64(i) / n)
		check(2 * math.Pi * r.Float64())
	}
}

// TestNormFloat64MatchesReference draws from twin streams and requires
// bit-identical normals, cached halves included.
func TestNormFloat64MatchesReference(t *testing.T) {
	fast, ref := New(5), New(5)
	for i := 0; i < 1_000_000; i++ {
		got, want := fast.NormFloat64(), refNormFloat64(ref)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: got %v, want %v", i, got, want)
		}
	}
}

// BenchmarkBoxMuller measures one normal draw with one math.Sincos (fast)
// and with separate math.Sin and math.Cos (ref).
func BenchmarkBoxMuller(b *testing.B) {
	var sink float64
	b.Run("ref", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += refNormFloat64(r)
		}
	})
	b.Run("fast", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			sink += r.NormFloat64()
		}
	})
	normSink = sink
}

var normSink float64
