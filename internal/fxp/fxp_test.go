package fxp

import (
	"testing"

	"lscatter/internal/rng"
)

// TestQuantQ15 pins the conversion quantizer: symmetric clamp and
// round-to-nearest-even.
func TestQuantQ15(t *testing.T) {
	cases := []struct {
		x    float64
		want int16
	}{
		{0, 0},
		{0.5, 16384},
		{-0.5, -16384},
		{1.0, MaxMant},   // clamp: +1.0 is not representable
		{-1.0, -MaxMant}, // symmetric clamp: negation-safe
		{2.0, MaxMant},
		{-2.0, -MaxMant},
		{1.5 / One, 2}, // tie -> even
		{2.5 / One, 2}, // tie -> even
		{-1.5 / One, -2},
	}
	for _, c := range cases {
		if got := QuantQ15(c.x); got != c.want {
			t.Errorf("QuantQ15(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestLaneOrder pins the words view: lane l of word w is sample 4w+l.
func TestLaneOrder(t *testing.T) {
	b := New(8)
	for i := range b.I {
		b.I[i] = int16(i + 1)
	}
	w := b.IWords()
	for i := 0; i < 8; i++ {
		got := int16(w[i/4] >> (16 * (i % 4)))
		if got != int16(i+1) {
			t.Fatalf("sample %d read back as %d through the word view", i, got)
		}
	}
}

// TestStreamSelectAdd checks the fused streamer kernel against a scalar
// model: biased select-and-add must reproduce C(sel) + noise exactly.
func TestStreamSelectAdd(t *testing.T) {
	r := rng.New(17)
	const units = 300
	const noiseMax = 2000
	c0m := make([]int16, units*lanes)
	c1m := make([]int16, units*lanes)
	for i := range c0m {
		c0m[i] = int16(int(r.Uint64()%(2*(MaxMant-noiseMax)+1)) - (MaxMant - noiseMax))
		c1m[i] = int16(int(r.Uint64()%(2*(MaxMant-noiseMax)+1)) - (MaxMant - noiseMax))
	}
	words := units // words per component
	c0 := make([]uint64, 2*words)
	c1 := make([]uint64, 2*words)
	// Interleave I and Q words per unit: for the test both components carry
	// the same mantissa streams offset by one unit, which is enough to catch
	// index mistakes.
	tmp0 := make([]uint64, words)
	tmp1 := make([]uint64, words)
	PackBiased(tmp0, c0m, noiseMax)
	PackBiased(tmp1, c1m, noiseMax)
	for u := 0; u < units; u++ {
		c0[2*u], c0[2*u+1] = tmp0[u], tmp0[(u+1)%units]
		c1[2*u], c1[2*u+1] = tmp1[u], tmp1[(u+1)%units]
	}
	d := make([]uint64, 2*words)
	for k := range d {
		d[k] = c0[k] ^ c1[k]
	}
	phase := make([]uint64, (units+63)/64)
	for u := 0; u < units; u++ {
		if r.Uint64()&1 == 1 {
			phase[u/64] |= 1 << (u % 64)
		}
	}
	noise := NewNoiseTable(rng.New(23), 64, 300, noiseMax)

	out := make([]uint64, 2*words)
	np := StreamSelectAdd(out, c0, d, phase, noise, 0)
	if np != 2*units {
		t.Fatalf("ring position advanced %d, want %d", np, 2*units)
	}
	// StreamSelectAdd fuses the unbias into its store: out already holds
	// two's-complement mantissas.

	// Scalar model.
	noiseLane := func(p int) int {
		w := noise[(p/lanes)&(len(noise)-1)]
		return int(uint16(w>>(16*(p%lanes)))) - noiseMax
	}
	pos := 0
	for u := 0; u < units; u++ {
		sel := phase[u/64]>>(u%64)&1 == 1
		for comp := 0; comp < 2; comp++ {
			srcW := tmp0[(u+comp)%units]
			if sel {
				srcW = tmp1[(u+comp)%units]
			}
			for l := 0; l < lanes; l++ {
				c := int(uint16(srcW>>(16*l))) - (One - noiseMax) // unbias the packed composite (lanes are offset-binary, not two's complement)
				want := c + noiseLane(pos*lanes+l)
				got := int(int16(uint16(out[2*u+comp] >> (16 * l))))
				if got != want {
					t.Fatalf("unit %d comp %d lane %d: got %d want %d", u, comp, l, got, want)
				}
			}
			pos++
		}
	}
}

// TestPackBiasedContract verifies the headroom contract is enforced.
func TestPackBiasedContract(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackBiased accepted a mantissa violating the headroom contract")
		}
	}()
	dst := make([]uint64, 1)
	PackBiased(dst, []int16{32000}, 1000)
}
