package bits

import (
	"math"
	"testing"
	"testing/quick"

	"lscatter/internal/rng"
)

func TestConvEncodeLengths(t *testing.T) {
	for _, c := range []*ConvCode{NewConvCodeR13(), NewConvCodeR12()} {
		for _, n := range []int{1, 10, 100} {
			coded := c.Encode(make([]byte, n))
			if len(coded) != c.EncodedLen(n) {
				t.Fatalf("encoded length %d, want %d", len(coded), c.EncodedLen(n))
			}
		}
	}
}

func TestConvRoundTripNoErrors(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(200) + 1
		msg := r.Bits(make([]byte, n))
		for _, c := range []*ConvCode{NewConvCodeR13(), NewConvCodeR12()} {
			dec := c.Decode(c.Encode(msg))
			if dec == nil || CountDiff(dec, msg) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvCorrectsScatteredErrors(t *testing.T) {
	r := rng.New(7)
	c := NewConvCodeR13()
	msg := r.Bits(make([]byte, 100))
	coded := c.Encode(msg)
	// Flip well-separated bits: rate-1/3 K=7 has free distance 15, so a few
	// scattered errors must be corrected.
	for _, pos := range []int{10, 60, 120, 200, 280} {
		coded[pos] ^= 1
	}
	dec := c.Decode(coded)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("Viterbi failed to correct scattered errors: %d residual", CountDiff(dec, msg))
	}
}

func TestConvR12CorrectsErrors(t *testing.T) {
	r := rng.New(8)
	c := NewConvCodeR12()
	msg := r.Bits(make([]byte, 100))
	coded := c.Encode(msg)
	for _, pos := range []int{15, 80, 150} {
		coded[pos] ^= 1
	}
	dec := c.Decode(coded)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("rate-1/2 Viterbi failed: %d residual errors", CountDiff(dec, msg))
	}
}

func TestConvSoftBeatsHardAtLowSNR(t *testing.T) {
	// With Gaussian-corrupted LLRs, soft decoding must recover a codeword
	// whose hard slicing contains errors.
	r := rng.New(9)
	c := NewConvCodeR13()
	msg := r.Bits(make([]byte, 200))
	coded := c.Encode(msg)
	llr := make([]float64, len(coded))
	sigma := 0.9
	hardErrs := 0
	for i, b := range coded {
		v := 1.0
		if b == 1 {
			v = -1
		}
		noisy := v + sigma*r.NormFloat64()
		llr[i] = noisy
		if (noisy < 0) != (b == 1) {
			hardErrs++
		}
	}
	if hardErrs == 0 {
		t.Fatal("test setup produced no raw channel errors")
	}
	dec := c.DecodeSoft(llr)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("soft Viterbi left %d errors (raw channel had %d)", CountDiff(dec, msg), hardErrs)
	}
}

func TestConvDecodeInvalidLength(t *testing.T) {
	c := NewConvCodeR12()
	if c.Decode(make([]byte, 5)) != nil {
		t.Fatal("Decode accepted length not divisible by rate")
	}
	if c.Decode(make([]byte, 2)) != nil {
		t.Fatal("Decode accepted input shorter than tail")
	}
}

func TestConvRateAccessors(t *testing.T) {
	in, out := NewConvCodeR13().Rate()
	if in != 1 || out != 3 {
		t.Fatalf("R13 rate = %d/%d", in, out)
	}
	in, out = NewConvCodeR12().Rate()
	if in != 1 || out != 2 {
		t.Fatalf("R12 rate = %d/%d", in, out)
	}
}

func BenchmarkConvEncode1000(b *testing.B) {
	r := rng.New(1)
	c := NewConvCodeR12()
	msg := r.Bits(make([]byte, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(msg)
	}
}

// TestDecodeSoftNonFiniteIgnoresPoolHistory: on all-NaN or all-+Inf LLRs no
// add-compare-select improves on -Inf for most states, so the survivors the
// traceback follows must come from this decode, not from whatever the pooled
// scratch held. Decoding an all-ones message first fills the pool with
// ones-path survivors; the non-finite decodes that follow must still give
// zeros.
func TestDecodeSoftNonFiniteIgnoresPoolHistory(t *testing.T) {
	const n = 34
	ones := make([]byte, n)
	for i := range ones {
		ones[i] = 1
	}
	for _, c := range []*ConvCode{NewConvCodeR12(), NewConvCodeR13()} {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			if dec := c.Decode(c.Encode(ones)); CountDiff(dec, ones) != 0 {
				t.Fatalf("rate 1/%d: all-ones round trip failed", c.kept)
			}
			llr := make([]float64, c.EncodedLen(n))
			for i := range llr {
				llr[i] = v
			}
			dec := c.DecodeSoft(llr)
			if len(dec) != n {
				t.Fatalf("rate 1/%d, LLR %v: decoded %d bits, want %d", c.kept, v, len(dec), n)
			}
			for i, b := range dec {
				if b != 0 {
					t.Fatalf("rate 1/%d, LLR %v: bit %d = %d, want all zeros %v", c.kept, v, i, b, dec)
				}
			}
		}
	}
}
