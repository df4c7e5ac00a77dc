// Package fxp is the Q1.15 sample form of the fixed-point transport
// streamer (simlink.Streamer): complex samples in structure-of-arrays
// buffers and the packed-word (SWAR) kernels that let the streamer's hot
// loop process four samples per integer operation on a plain 64-bit core.
//
// Representation. A Buf holds one waveform segment as two int16 slices —
// all I mantissas, then all Q mantissas — plus a single block scale:
//
//	sample[k] = Scale/32768 * (I[k] + j·Q[k])
//
// Mantissas are Q1.15 two's complement. QuantQ15 rounds a float component
// to the nearest mantissa with a symmetric clamp, so the per-component
// quantization error is bounded by Scale/65536 (half a least-significant
// step); the streamer's resulting error budget is derived in
// docs/PERFORMANCE.md.
package fxp

import (
	"fmt"
	"math"
)

// FracBits is the Q1.15 fraction width: mantissa full scale is 1<<FracBits.
const FracBits = 15

// One is the mantissa value representing 1.0 before saturation (1<<15).
// The largest representable mantissa is One-1.
const One = 1 << FracBits

// MaxMant is the int16 mantissa rail.
const MaxMant = math.MaxInt16

// QuantQ15 rounds x (in [-1, 1]) to the nearest Q1.15 mantissa, clamped to
// ±MaxMant. The clamp is symmetric — QuantQ15 never returns -32768 — so a
// quantized block can be negated without re-saturation. Non-finite input
// panics: a NaN mantissa would silently corrupt every downstream sum.
func QuantQ15(x float64) int16 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("fxp: QuantQ15(%v)", x))
	}
	v := math.RoundToEven(x * One)
	if v > MaxMant {
		return MaxMant
	}
	if v < -MaxMant {
		return -MaxMant
	}
	return int16(v)
}

// Buf is one waveform segment in block-scaled Q1.15 SoA form. I and Q alias
// a single word-aligned backing store, so the SWAR kernels can view either
// component as packed uint64 words.
type Buf struct {
	// I and Q hold the component mantissas.
	I, Q []int16
	// Scale is the block scale: sample k = Scale/32768 * (I[k] + j·Q[k]).
	Scale float64

	words []uint64 // backing store: I words, then Q words
}

// New allocates a zeroed Buf of n samples with Scale 1.
func New(n int) *Buf {
	w := (n + lanes - 1) / lanes // words per component
	b := &Buf{Scale: 1, words: make([]uint64, 2*w)}
	b.I = wordsToInt16(b.words[:w])[:n]
	b.Q = wordsToInt16(b.words[w:])[:n]
	return b
}

// Len returns the sample count.
func (b *Buf) Len() int { return len(b.I) }

// IWords and QWords expose the component mantissas as packed 4-lane words
// (little-endian lane order: lane l of word w is sample 4w+l). The final
// word's tail lanes beyond Len() are part of the padding and may hold
// anything; kernels that write whole words may clobber them.
func (b *Buf) IWords() []uint64 { return b.words[:len(b.words)/2] }

// QWords is the Q-component counterpart of IWords.
func (b *Buf) QWords() []uint64 { return b.words[len(b.words)/2:] }

// ToComplex materializes the buffer into dst (allocated when nil or short)
// and returns it.
func (b *Buf) ToComplex(dst []complex128) []complex128 {
	if len(dst) < len(b.I) {
		dst = make([]complex128, len(b.I))
	}
	dst = dst[:len(b.I)]
	k := b.Scale / One
	for i := range dst {
		dst[i] = complex(float64(b.I[i])*k, float64(b.Q[i])*k)
	}
	return dst
}

// At returns sample i as a complex128.
func (b *Buf) At(i int) complex128 {
	k := b.Scale / One
	return complex(float64(b.I[i])*k, float64(b.Q[i])*k)
}
