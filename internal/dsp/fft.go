// Package dsp implements the signal-processing primitives the simulator is
// built on: FFTs for OFDM modulation/demodulation and fast correlation, FIR
// and RC filters for the tag's analog front end, window functions and a
// short-time Fourier transform for the spectrogram figures.
//
// Everything operates on []complex128 baseband samples. Hot paths accept
// destination slices so callers can reuse buffers (gopacket-style zero-copy
// decoding applied to sample streams).
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed state to transform length-N complex vectors.
// Power-of-two sizes use an iterative radix-2 Cooley-Tukey kernel whose
// stages run in fused pairs (radix-2²); any other
// size (LTE's 15 MHz bandwidth needs N=1536) falls back to Bluestein's
// chirp-z algorithm built on a padded power-of-two transform.
//
// A Plan is safe for concurrent use: all retained state is read-only after
// construction and scratch buffers are allocated per call... except the
// scratch-free fast paths, which write only to caller-provided slices.
type Plan struct {
	n       int
	pow2    bool
	perm    []int        // bit-reversal permutation (pow2 only)
	twiddle []complex128 // per-stage twiddles, forward direction (pow2 only); see stageTwiddles
	// Bluestein state (non-pow2 only)
	m     int          // padded size, power of two >= 2n-1
	chirp []complex128 // exp(-i*pi*k^2/n)
	bfft  []complex128 // FFT of the zero-padded conjugate chirp
	sub   *Plan        // power-of-two subplan of size m
}

var (
	planMu    sync.RWMutex
	planCache = map[int]*Plan{}
)

// PlanFor returns a cached Plan for size n, building it on first use. The
// fast path takes only a read lock: with the correlation engine on the
// acquisition path every harness worker hits the cache per subframe, and an
// exclusive lock here serializes them for no reason once the handful of
// distinct sizes exist.
func PlanFor(n int) *Plan {
	planMu.RLock()
	p, ok := planCache[n]
	planMu.RUnlock()
	if ok {
		return p
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[n]; ok {
		return p // raced with another builder of the same size
	}
	p = NewPlan(n)
	planCache[n] = p
	return p
}

// NewPlan builds a transform plan for length n. It panics if n < 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: invalid FFT size %d", n))
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.perm = bitReversePerm(n)
		p.twiddle = stageTwiddles(n)
		return p
	}
	// Bluestein
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = NewPlan(m)
	p.chirp = make([]complex128, n)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to avoid float blow-up for large k.
		idx := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(idx) / float64(n)
		p.chirp[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	b[0] = complex(1, 0)
	for k := 1; k < n; k++ {
		c := cmplxConj(p.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	p.bfft = make([]complex128, m)
	p.sub.forwardPow2(p.bfft, b)
	return p
}

// stageTwiddles lays out the twiddles of every radix-2 stage contiguously:
// the stage whose butterflies span half-size h reads w^(k*n/(2h)),
// w = exp(-2*pi*i/n), for k in [0, h) at offset h-1, so each stage walks
// its own table with unit stride. Entries are the same float64 values the
// strided single-table layout held.
func stageTwiddles(n int) []complex128 {
	full := make([]complex128, n/2)
	for k := range full {
		angle := -2 * math.Pi * float64(k) / float64(n)
		full[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	tw := make([]complex128, 0, n)
	for h := 1; h < n; h <<= 1 {
		step := n / (2 * h)
		for k := 0; k < h; k++ {
			tw = append(tw, full[k*step])
		}
	}
	return tw
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func bitReversePerm(n int) []int {
	logN := uint(bits.TrailingZeros(uint(n)))
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		perm[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - int(logN)))
	}
	return perm
}

// Forward computes the unnormalized DFT of src into dst:
// dst[k] = sum_n src[n] * exp(-2*pi*i*n*k/N). dst and src must both have
// length N; dst may alias src.
func (p *Plan) Forward(dst, src []complex128) {
	p.checkLen(dst, src)
	if p.pow2 {
		p.forwardPow2(dst, src)
		return
	}
	p.bluestein(dst, src, false)
}

// Inverse computes the normalized inverse DFT of src into dst:
// dst[n] = (1/N) * sum_k src[k] * exp(+2*pi*i*n*k/N). dst may alias src.
func (p *Plan) Inverse(dst, src []complex128) {
	p.checkLen(dst, src)
	if p.pow2 {
		// IFFT via conjugation: ifft(x) = conj(fft(conj(x)))/N. The first
		// conjugation rides on the bit-reversal permutation and the second,
		// with the 1/N scale, on the stores of the last stage, so dst is
		// the only workspace and the path allocates nothing — it runs twice
		// per overlap-save block on the hot path.
		p.permute(dst, src, true)
		p.butterflies(dst, true)
		return
	}
	p.bluestein(dst, src, true)
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: FFT size mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
}

// forwardPow2 is the iterative radix-2 kernel. dst may alias src.
func (p *Plan) forwardPow2(dst, src []complex128) {
	p.permute(dst, src, false)
	p.butterflies(dst, false)
}

// permute stores the bit-reversal permutation of src in dst, conjugating
// every element when conj is set. Distinct buffers take one gather pass;
// dst == src swaps in place.
func (p *Plan) permute(dst, src []complex128, conj bool) {
	perm := p.perm[:len(dst)]
	if &dst[0] != &src[0] {
		if conj {
			for i, j := range perm {
				dst[i] = cmplxConj(src[j])
			}
		} else {
			for i, j := range perm {
				dst[i] = src[j]
			}
		}
		return
	}
	for i, j := range perm {
		switch {
		case i < j:
			if conj {
				dst[i], dst[j] = cmplxConj(dst[j]), cmplxConj(dst[i])
			} else {
				dst[i], dst[j] = dst[j], dst[i]
			}
		case i == j && conj:
			dst[i] = cmplxConj(dst[i])
		}
	}
}

// butterflies runs the log2 n radix-2 stages over the bit-reversed x, two
// stages per pass, with a single trailing stage when log2 n is odd. Every
// butterfly is the radix-2 one, a ± b·w in stage order, so the fusion only
// saves memory passes. inverse folds the final conjugation and 1/N scale
// of Inverse into the last stage's stores.
func (p *Plan) butterflies(x []complex128, inverse bool) {
	n := p.n
	scale := 1 / float64(n)
	h := 1
	for ; 4*h <= n; h <<= 2 {
		last := inverse && 4*h == n
		if h == 1 {
			radix22First(x, p.stageTw(1), p.stageTw(2), last, scale)
		} else {
			radix22(x, p.stageTw(h), p.stageTw(2*h), last, scale)
		}
	}
	switch {
	case 2*h == n:
		radix2Last(x, p.stageTw(h), inverse, scale)
	case n == 1 && inverse:
		x[0] = complex(real(x[0])*scale, -imag(x[0])*scale)
	}
}

// stageTw returns the twiddles of the stage with butterfly half-size h.
func (p *Plan) stageTw(h int) []complex128 { return p.twiddle[h-1 : 2*h-1] }

// radix22 runs the stages of half-sizes h and 2h in one pass over blocks of
// 4h: per k, two half-size-h butterflies on (x0, x1) and (x2, x3) with
// w1[k], then half-size-2h ones on (x0, x2) with w2[k] and (x1, x3) with
// w2[h+k]. last stores conj(v)·scale, the Inverse epilogue.
func radix22(x, w1, w2 []complex128, last bool, scale float64) {
	h := len(w1)
	w2a, w2b := w2[:h], w2[h:2*h]
	for len(x) >= 4*h {
		x0, x1, x2, x3 := x[:h], x[h:2*h], x[2*h:3*h], x[3*h:4*h]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		w1, w2a, w2b := w1[:len(x0)], w2a[:len(x0)], w2b[:len(x0)]
		if last {
			for k := range x0 {
				a, b := x0[k], x1[k]*w1[k]
				y0, y1 := a+b, a-b
				a, b = x2[k], x3[k]*w1[k]
				y2, y3 := a+b, a-b
				b = y2 * w2a[k]
				v0, v2 := y0+b, y0-b
				b = y3 * w2b[k]
				v1, v3 := y1+b, y1-b
				x0[k] = complex(real(v0)*scale, -imag(v0)*scale)
				x1[k] = complex(real(v1)*scale, -imag(v1)*scale)
				x2[k] = complex(real(v2)*scale, -imag(v2)*scale)
				x3[k] = complex(real(v3)*scale, -imag(v3)*scale)
			}
		} else {
			for k := range x0 {
				a, b := x0[k], x1[k]*w1[k]
				y0, y1 := a+b, a-b
				a, b = x2[k], x3[k]*w1[k]
				y2, y3 := a+b, a-b
				b = y2 * w2a[k]
				x0[k], x2[k] = y0+b, y0-b
				b = y3 * w2b[k]
				x1[k], x3[k] = y1+b, y1-b
			}
		}
		x = x[4*h:]
	}
}

// radix22First is radix22 for h = 1, where a block is four adjacent
// samples and the three twiddles are loop constants.
func radix22First(x, w1, w2 []complex128, last bool, scale float64) {
	t1, t2a, t2b := w1[0], w2[0], w2[1]
	for ; len(x) >= 4; x = x[4:] {
		q := x[:4:4]
		a, b := q[0], q[1]*t1
		y0, y1 := a+b, a-b
		a, b = q[2], q[3]*t1
		y2, y3 := a+b, a-b
		b = y2 * t2a
		v0, v2 := y0+b, y0-b
		b = y3 * t2b
		v1, v3 := y1+b, y1-b
		if last {
			v0 = complex(real(v0)*scale, -imag(v0)*scale)
			v1 = complex(real(v1)*scale, -imag(v1)*scale)
			v2 = complex(real(v2)*scale, -imag(v2)*scale)
			v3 = complex(real(v3)*scale, -imag(v3)*scale)
		}
		q[0], q[1], q[2], q[3] = v0, v1, v2, v3
	}
}

// radix2Last is the trailing single stage of an odd log2 n: one block of
// half-size h = len(w) = n/2. inverse stores conj(v)·scale.
func radix2Last(x, w []complex128, inverse bool, scale float64) {
	lo, hi := x[:len(w)], x[len(w):]
	hi = hi[:len(lo)]
	w = w[:len(lo)]
	if inverse {
		for k := range lo {
			a, b := lo[k], hi[k]*w[k]
			v0, v1 := a+b, a-b
			lo[k] = complex(real(v0)*scale, -imag(v0)*scale)
			hi[k] = complex(real(v1)*scale, -imag(v1)*scale)
		}
		return
	}
	for k := range lo {
		a, b := lo[k], hi[k]*w[k]
		lo[k], hi[k] = a+b, a-b
	}
}

// bluestein computes the (possibly inverse) DFT of arbitrary size via the
// chirp-z transform.
func (p *Plan) bluestein(dst, src []complex128, inverse bool) {
	n, m := p.n, p.m
	aBuf := AcquireBuf(m)
	defer ReleaseBuf(aBuf)
	a := *aBuf
	for i := n; i < m; i++ {
		a[i] = 0
	}
	if inverse {
		for k := 0; k < n; k++ {
			a[k] = cmplxConj(src[k]) * p.chirp[k]
		}
	} else {
		for k := 0; k < n; k++ {
			a[k] = src[k] * p.chirp[k]
		}
	}
	p.sub.forwardPow2(a, a)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	// inverse transform of a, unnormalized, using conjugation trick
	for i := range a {
		a[i] = cmplxConj(a[i])
	}
	p.sub.forwardPow2(a, a)
	scale := 1 / float64(m)
	if inverse {
		// conj again and normalize by n for the inverse DFT
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

// FFT returns the unnormalized DFT of x in a fresh slice.
func FFT(x []complex128) []complex128 {
	dst := make([]complex128, len(x))
	PlanFor(len(x)).Forward(dst, x)
	return dst
}

// FFTShiftInto reorders the spectrum x into dst so the zero-frequency bin
// moves to the center. For odd lengths the extra bin stays on the left of
// center, matching the usual fftshift convention. dst must have the length
// of x and must not alias it. It returns dst so per-frame loops (the STFT)
// can reuse one buffer.
func FFTShiftInto(dst, x []complex128) []complex128 {
	n := len(x)
	if len(dst) != n {
		panic("dsp: FFTShiftInto length mismatch")
	}
	half := (n + 1) / 2
	copy(dst, x[half:])
	copy(dst[n-half:], x[:half])
	return dst
}
