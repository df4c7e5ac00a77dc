package dsp

// Fast cross-correlation engine. The direct O(N*M) form in CrossCorrelate is
// kept as the reference implementation; this file provides the production
// path, CorrelatorBank: FFT overlap-save with cached plans and precomputed
// reference spectra over one stream and one or more references, so the
// scatter demodulator's preamble search transforms the metric stream once per
// block and reuses the stream spectrum for every tag's preamble, and a
// benchmark-chosen crossover below which the direct form still wins. A single
// reference is a one-reference bank.
//
// Overlap-save block math: for a reference of length M the engine picks a
// power-of-two block L >= overlapSaveFactor*M and precomputes
// S[k] = conj(FFT_L(ref padded to L)). Each block of the stream starting at
// lag p is transformed, multiplied by S, and inverse-transformed; the first
// V = L-M+1 output samples are exact linear correlation values
// c[p+i] = sum_n x[p+i+n]*conj(ref[n]) (the remaining M-1 samples wrap and
// are discarded), so blocks advance by V. Total cost is O(N log M) instead
// of O(N*M).

import (
	"fmt"
	"math/bits"
	"sync"
)

// directCrossover is the reference length below which the direct form is
// used: per output lag the direct form costs M multiply-adds against the
// overlap-save amortized cost of ~(2 FFTs + multiply)/V ≈ 2*log2(L)*L/V,
// which is nearly flat in M. BenchmarkCorrelateDirect vs
// BenchmarkCorrelateFFT over a 40960-sample stream place the break-even
// between M=16 (direct 1.9x faster) and M=32 (FFT 1.5x faster).
const directCrossover = 32

// minFFTLags is the minimum number of output lags for the FFT path: with
// only a handful of outputs even a long reference cannot amortize the
// reference-spectrum setup and a whole L-point round trip.
const minFFTLags = 32

// overlapSaveFactor sizes the FFT block as the next power of two at or above
// this multiple of the reference length, trading per-block overhead (the M-1
// wrapped samples recomputed each block) against FFT size.
const overlapSaveFactor = 4

// useDirect reports whether the direct form is expected to beat overlap-save
// for a length-n stream against a length-m reference.
func useDirect(n, m int) bool {
	return m < directCrossover || n-m+1 < minFFTLags
}

// ceilPow2 returns the smallest power of two >= n (n >= 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// bufPools holds one sync.Pool of []complex128 scratch per power-of-two size
// class. Pooled scratch is what keeps the engine allocation-free on the hot
// path while staying race-free under the parallel experiment harness: every
// worker gets its own buffer for the duration of a call.
var bufPools sync.Map // int (pow2 size class) -> *sync.Pool

func bufPool(class int) *sync.Pool {
	if p, ok := bufPools.Load(class); ok {
		return p.(*sync.Pool)
	}
	p := &sync.Pool{New: func() any {
		b := make([]complex128, class)
		return &b
	}}
	actual, _ := bufPools.LoadOrStore(class, p)
	return actual.(*sync.Pool)
}

// AcquireBuf returns a scratch slice of length exactly n (contents
// undefined) drawn from a per-size-class pool. Pass the returned pointer to
// ReleaseBuf when done; the pointer indirection keeps Get/Put free of
// interface-boxing allocations. Buffers are safe for concurrent use in the
// usual sense: each Acquire hands out a private buffer.
func AcquireBuf(n int) *[]complex128 {
	p := bufPool(ceilPow2(n)).Get().(*[]complex128)
	*p = (*p)[:n]
	return p
}

// ReleaseBuf returns a buffer obtained from AcquireBuf to its pool. The
// caller must not use the slice afterwards.
func ReleaseBuf(p *[]complex128) {
	if p == nil || cap(*p) == 0 {
		return
	}
	// Refile by capacity: the buffer was created at a power-of-two length,
	// so the largest power of two <= cap recovers its size class.
	class := 1 << (bits.Len(uint(cap(*p))) - 1)
	*p = (*p)[:class]
	bufPool(class).Put(p)
}

// refSpectrum returns conj(FFT_L(ref zero-padded to L)).
func refSpectrum(plan *Plan, block int, ref []complex128) []complex128 {
	spec := make([]complex128, block)
	copy(spec, ref)
	plan.Forward(spec, spec)
	return Conj(spec)
}

// directCorrelate is the direct form written into dst (the engine-internal
// twin of CrossCorrelate).
func directCorrelate(dst, x, ref []complex128) {
	for lag := range dst {
		var acc complex128
		seg := x[lag : lag+len(ref)]
		for n, r := range ref {
			acc += seg[n] * cmplxConj(r)
		}
		dst[lag] = acc
	}
}

// CorrelatorBank correlates one stream against one or more equal-length
// references at once, by FFT overlap-save above the crossover and the direct
// form below it. The batch win over one bank per reference is that each
// overlap-save block of the stream is transformed a single time and the
// stream spectrum is shared across all references (one per tag preamble in
// the scatter demodulator's sync search). The reference spectra and plan are computed once at construction, so repeated calls
// against new streams do no per-call setup. A bank is safe for concurrent
// use: all retained state is read-only after construction and scratch comes
// from the pool.
type CorrelatorBank struct {
	m     int
	refs  [][]complex128
	block int
	step  int
	plan  *Plan
	specs [][]complex128
}

// NewCorrelatorBank builds a bank over the given references, which must all
// share one length. References are copied. It panics on an empty bank, an
// empty reference, or mismatched lengths.
func NewCorrelatorBank(refs [][]complex128) *CorrelatorBank {
	if len(refs) == 0 || len(refs[0]) == 0 {
		panic("dsp: NewCorrelatorBank needs at least one non-empty reference")
	}
	m := len(refs[0])
	b := &CorrelatorBank{
		m:     m,
		refs:  make([][]complex128, len(refs)),
		block: ceilPow2(overlapSaveFactor * m),
		specs: make([][]complex128, len(refs)),
	}
	b.step = b.block - m + 1
	b.plan = PlanFor(b.block)
	for i, ref := range refs {
		if len(ref) != m {
			panic(fmt.Sprintf("dsp: NewCorrelatorBank reference %d has length %d, want %d", i, len(ref), m))
		}
		b.refs[i] = append([]complex128(nil), ref...)
		b.specs[i] = refSpectrum(b.plan, b.block, ref)
	}
	return b
}

// RefLen returns the shared reference length M.
func (b *CorrelatorBank) RefLen() int { return b.m }

// CorrelateAll correlates x against every reference. dst (or a fresh slice
// per reference when dst is nil or too short) receives one correlation
// vector per reference; it returns nil vectors when x is shorter than the
// references.
func (b *CorrelatorBank) CorrelateAll(dst [][]complex128, x []complex128) [][]complex128 {
	if cap(dst) < len(b.refs) {
		dst = make([][]complex128, len(b.refs))
	}
	dst = dst[:len(b.refs)]
	nOut := len(x) - b.m + 1
	if nOut <= 0 {
		for i := range dst {
			dst[i] = nil
		}
		return dst
	}
	for i := range dst {
		if cap(dst[i]) < nOut {
			dst[i] = make([]complex128, nOut)
		}
		dst[i] = dst[i][:nOut]
	}
	if useDirect(len(x), b.m) {
		for i, ref := range b.refs {
			directCorrelate(dst[i], x, ref)
		}
		return dst
	}
	b.correlateFFT(dst, x)
	return dst
}

// correlateFFT runs the overlap-save path unconditionally into dst, whose
// vectors all have length len(x)-M+1 (the crossover benchmarks call it
// directly to measure both sides of the policy).
func (b *CorrelatorBank) correlateFFT(dst [][]complex128, x []complex128) {
	nOut := len(dst[0])
	fxBuf := AcquireBuf(b.block)
	workBuf := AcquireBuf(b.block)
	defer ReleaseBuf(fxBuf)
	defer ReleaseBuf(workBuf)
	fx, work := *fxBuf, *workBuf
	for pos := 0; pos < nOut; pos += b.step {
		// One forward transform of the stream block, shared by every
		// reference in the bank.
		avail := len(x) - pos
		if avail > b.block {
			avail = b.block
		}
		copy(fx, x[pos:pos+avail])
		for i := avail; i < b.block; i++ {
			fx[i] = 0
		}
		b.plan.Forward(fx, fx)
		cnt := nOut - pos
		if cnt > b.step {
			cnt = b.step
		}
		for r, spec := range b.specs {
			for i, s := range spec {
				work[i] = fx[i] * s
			}
			b.plan.Inverse(work, work)
			copy(dst[r][pos:pos+cnt], work[:cnt])
		}
	}
}
