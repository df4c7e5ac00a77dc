package channel

import (
	"math"
	"testing"

	"lscatter/internal/rng"
)

// refFadePower is the FadePower that recomputed the Ricean constants on
// every call, kept verbatim as the reference.
func refFadePower(r *rng.Source, los bool) float64 {
	if los {
		k := math.Pow(10, 0.7)
		s := math.Sqrt(k / (k + 1))
		sigma := math.Sqrt(1 / (2 * (k + 1)))
		re := s + sigma*r.NormFloat64()
		im := sigma * r.NormFloat64()
		return re*re + im*im
	}
	re := r.NormFloat64() / math.Sqrt2
	im := r.NormFloat64() / math.Sqrt2
	return re*re + im*im
}

// TestFadePowerConstants pins the hoisted Ricean constants to the float64
// bits of the per-call expressions they replace.
func TestFadePowerConstants(t *testing.T) {
	k := math.Pow(10, 0.7)
	for _, c := range []struct {
		name      string
		got, want float64
		bits      uint64
	}{
		{"K", riceK, k, 0x40140c28430012e6},
		{"LoS amplitude", riceLoS, math.Sqrt(k / (k + 1)), 0x3fed37b71f34029d},
		{"scatter sigma", riceSigma, math.Sqrt(1 / (2 * (k + 1))), 0x3fd274fb22ef053a},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) || math.Float64bits(c.got) != c.bits {
			t.Errorf("%s = %v (%#x), want %v (%#x)", c.name, c.got, math.Float64bits(c.got), c.want, c.bits)
		}
	}
	// The fade has unit mean power: K/(K+1) specular plus 2σ² scatter.
	if mean := riceLoS*riceLoS + 2*riceSigma*riceSigma; math.Abs(mean-1) > 1e-15 {
		t.Errorf("LoS mean power %v, want 1", mean)
	}
}

// TestFadePowerMatchesReference draws both fades from twin streams and
// requires bit-identical powers and identical stream consumption.
func TestFadePowerMatchesReference(t *testing.T) {
	for _, los := range []bool{true, false} {
		fast, ref := rng.New(7), rng.New(7)
		for i := 0; i < 200000; i++ {
			got, want := FadePower(fast, los), refFadePower(ref, los)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("los=%v draw %d: got %v, want %v", los, i, got, want)
			}
		}
		if fast.Uint64() != ref.Uint64() {
			t.Fatalf("los=%v: streams diverged", los)
		}
	}
}

// BenchmarkFadePower measures one LoS fade draw with the constants hoisted
// (fast) and recomputed per call (ref).
func BenchmarkFadePower(b *testing.B) {
	var sink float64
	b.Run("ref", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			sink += refFadePower(r, true)
		}
	})
	b.Run("fast", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			sink += FadePower(r, true)
		}
	})
	fadeSink = sink
}

var fadeSink float64
