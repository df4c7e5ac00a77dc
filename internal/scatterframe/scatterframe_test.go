package scatterframe

import (
	"testing"
	"testing/quick"

	"lscatter/internal/bits"
	"lscatter/internal/rng"
)

func TestRoundTripClean(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		c := NewCodec()
		payload := r.Bits(make([]byte, r.Intn(300)+1))
		got, ok := c.Decode(c.Encode(payload))
		return ok && bits.CountDiff(got, payload) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectsRandomErrors(t *testing.T) {
	r := rng.New(2)
	c := NewCodec()
	payload := r.Bits(make([]byte, 240))
	coded := c.Encode(payload)
	// 1.5% random errors: hopeless uncoded (240-bit frame survives with
	// p=(1-0.015)^240 ~ 2.6%), routine for the rate-1/2 K=7 code.
	delivered := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		noisy := append([]byte(nil), coded...)
		for j := range noisy {
			if r.Float64() < 0.015 {
				noisy[j] ^= 1
			}
		}
		if got, ok := c.Decode(noisy); ok && bits.CountDiff(got, payload) == 0 {
			delivered++
		}
	}
	if delivered < trials*8/10 {
		t.Fatalf("coded frames delivered %d/%d at 1.5%% BER", delivered, trials)
	}
}

func TestCorrectsBurstErrors(t *testing.T) {
	// Excitation nulls corrupt runs of adjacent units; the interleaver must
	// spread them for the Viterbi decoder.
	r := rng.New(3)
	c := NewCodec()
	payload := r.Bits(make([]byte, 240))
	coded := c.Encode(payload)
	noisy := append([]byte(nil), coded...)
	// Three bursts of 6 adjacent errors.
	for _, start := range []int{40, 200, 380} {
		for j := 0; j < 6; j++ {
			noisy[start+j] ^= 1
		}
	}
	got, ok := c.Decode(noisy)
	if !ok || bits.CountDiff(got, payload) != 0 {
		t.Fatal("burst errors not corrected")
	}
}

func TestCRCCatchesDecoderFailure(t *testing.T) {
	r := rng.New(4)
	c := NewCodec()
	payload := r.Bits(make([]byte, 240))
	coded := c.Encode(payload)
	falseOK := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		noisy := append([]byte(nil), coded...)
		for j := range noisy {
			if r.Float64() < 0.2 { // far beyond correction capability
				noisy[j] ^= 1
			}
		}
		if got, ok := c.Decode(noisy); ok && bits.CountDiff(got, payload) != 0 {
			falseOK++
		}
	}
	if falseOK > 0 {
		t.Fatalf("%d corrupted frames passed CRC", falseOK)
	}
}

func TestRateAccounting(t *testing.T) {
	c := NewCodec()
	if c.EncodedLen(1000) != 2*(1000+16+6) {
		t.Fatalf("encoded length %d", c.EncodedLen(1000))
	}
}
