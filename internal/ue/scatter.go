package ue

import (
	"fmt"
	"math"
	"math/cmplx"

	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
	"lscatter/internal/tag"
)

// ScatterConfig parameterizes the backscatter demodulator.
type ScatterConfig struct {
	// Params must match the waveform.
	Params ltephy.Params
	// Mode must match the tag's switching topology.
	Mode tag.Mode
	// RefineIters is the number of Eq. 7 refinement passes: each pass
	// reconstructs the band-limited hybrid from the current bit decisions,
	// cancels the inter-unit interference the band-limiting introduces, and
	// re-slices. 0 selects the default 2; set negative to disable.
	RefineIters int
	// TagIDs lists the tag identities this receiver listens for; burst
	// acquisition reports which tag's preamble matched. Empty means the
	// single default tag (ID 0).
	TagIDs []int
}

// smoothBins is the half-width (in FFT bins) of the window that smooths the
// backscatter channel estimate from the preamble.
const smoothBins = 15

// offsetSearch is the half-range, in basic-timing units, of the
// modulation-offset search around the nominal window position (§3.3.2). It
// covers the tag's worst-case residual timing error.
const offsetSearch = 64

// DefaultScatterConfig returns the demodulator configuration used in the
// evaluation.
func DefaultScatterConfig(p ltephy.Params) ScatterConfig {
	return ScatterConfig{Params: p, Mode: tag.DSB, RefineIters: 2}
}

// SymbolDecision is the demodulated content of one OFDM symbol.
type SymbolDecision struct {
	// Symbol is the OFDM symbol index within the subframe.
	Symbol int
	// Bits are the sliced backscatter bits.
	Bits []byte
	// Quality is the mean absolute decision metric (higher = cleaner).
	Quality float64
}

// ScatterResult is the demodulation outcome for one subframe.
type ScatterResult struct {
	// Synced reports whether a preamble was found (burst subframes only).
	Synced bool
	// OffsetUnits is the detected modulation offset in basic-timing units
	// relative to the nominal window start.
	OffsetUnits int
	// TagID identifies which configured tag's preamble matched.
	TagID int
	// PreambleCorr is the normalized preamble correlation (0..1).
	PreambleCorr float64
	// Decisions holds per-symbol sliced bits, excluding the preamble symbol.
	Decisions []SymbolDecision
}

// ScatterDemod demodulates the LScatter hybrid band. It holds burst state:
// the modulation offset and backscatter channel estimated from the most
// recent preamble are applied to subsequent subframes. A ScatterDemod
// processes one stream and is not safe for concurrent use — besides the
// burst state it owns per-call scratch buffers, so the steady-state receive
// path allocates only what it returns.
type ScatterDemod struct {
	cfg  ScatterConfig
	n    int // oversampled FFT size (M * N)
	nNom int // nominal FFT size N
	k    int // occupied subcarriers
	plan *dsp.Plan
	// burst state
	haveSync bool
	offset   int          // modulation offset in basic-timing units
	subOff   int          // sub-unit offset in oversampled samples [0, Oversample)
	chanEst  []complex128 // per-bin equalizer over clean bins (length n)
	cleanBin []bool       // usable hybrid observation bins
	// precomputed state (read-only after construction)
	wave    []complex128        // downshifted phase-0 switch waveform per unit
	mixer   []complex128        // downshift phasors, indexed by (position % Oversample) + Oversample - 1
	kTime   []complex128        // IFFT of the clean-bin indicator (projection kernel)
	preBank *dsp.CorrelatorBank // preamble sign sequences, one per configured tag
	tagIDs  []int               // resolved tag list (defaults to {0})
	// scratch (reused across calls; never escapes)
	scrZ       []complex128 // downshifted subframe
	scrHyb     []complex128
	scrSpec    []complex128
	scrRef     []complex128
	scrExpect  []complex128
	scrResid   []complex128
	scrMetrics []complex128
	scrCorr    [][]complex128
	scrAbsM    []float64
	scrTU      []float64
	scrAlpha   []float64
}

// NewScatterDemod builds the demodulator.
func NewScatterDemod(cfg ScatterConfig) *ScatterDemod {
	if cfg.RefineIters == 0 {
		cfg.RefineIters = 2
	} else if cfg.RefineIters < 0 {
		cfg.RefineIters = 0
	}
	p := cfg.Params
	n := p.BW.FFTSize() * p.Oversample
	d := &ScatterDemod{
		cfg:  cfg,
		n:    n,
		nNom: p.BW.FFTSize(),
		k:    p.BW.Subcarriers(),
		plan: dsp.PlanFor(n),
	}
	d.cleanBin = d.computeCleanBins()
	d.mixer = mixerTable(p.Oversample)
	d.wave = d.refWaveUnit()
	// The clean-bin projection kernel only depends on the bin mask, so the
	// refinement stage reuses one IFFT forever.
	kernel := make([]complex128, d.n)
	for b := range kernel {
		if d.cleanBin[b] {
			kernel[b] = 1
		}
	}
	d.kTime = make([]complex128, d.n)
	d.plan.Inverse(d.kTime, kernel)
	// Preamble matched filters: the offset search is a cross-correlation of
	// the per-unit metric stream against each tag's ±1 sign sequence, served
	// by the batch engine with spectra precomputed here.
	d.tagIDs = cfg.TagIDs
	if len(d.tagIDs) == 0 {
		d.tagIDs = []int{0}
	}
	nBits := p.UsefulModulationUnits()
	refs := make([][]complex128, len(d.tagIDs))
	for t, id := range d.tagIDs {
		signs := make([]complex128, nBits)
		for i, b := range tag.PreambleFor(id, nBits) {
			if b == 0 {
				signs[i] = -1 // bit 0 -> phase pi
			} else {
				signs[i] = 1
			}
		}
		refs[t] = signs
	}
	d.preBank = dsp.NewCorrelatorBank(refs)
	// Scratch sized once: every per-subframe buffer below is reused.
	d.scrZ = make([]complex128, p.Oversample*p.BW.SamplesPerSubframe())
	d.scrHyb = make([]complex128, d.n)
	d.scrSpec = make([]complex128, d.n)
	d.scrRef = make([]complex128, d.n)
	d.scrExpect = make([]complex128, d.n)
	d.scrResid = make([]complex128, d.n)
	d.scrMetrics = make([]complex128, d.nNom)
	d.scrCorr = make([][]complex128, len(d.tagIDs))
	d.scrAbsM = make([]float64, d.nNom)
	d.scrTU = make([]float64, d.nNom)
	d.scrAlpha = make([]float64, d.nNom)
	return d
}

// computeCleanBins marks the FFT bins (after downshift by +1/Ts) that carry
// only hybrid energy. Contaminated regions: the direct LTE path (shifted to
// -N), the DSB image (around ±2N after downshift) and the aliased third
// harmonic (lands on -N at 4x oversampling, already excluded).
func (d *ScatterDemod) computeCleanBins() []bool {
	n, nn, k := d.n, d.nNom, d.k
	guard := k/8 + 8
	clean := make([]bool, n)
	for b := 0; b < n; b++ {
		f := b
		if f > n/2 {
			f -= n
		}
		// Hybrid content concentrates within ±(k/2 + nn/2); beyond that
		// only noise — keep bins there too, they are harmless after
		// channel-estimate masking, but excluding them improves SNR.
		if f < -(k/2+nn/2) || f > k/2+nn/2 {
			continue
		}
		// Direct path after downshift sits around -nn.
		if f >= -nn-k/2-guard && f <= -nn+k/2+guard {
			continue
		}
		// DSB image region around ±2*nn (only inside range when Oversample
		// is small).
		if f >= 2*nn-k/2-guard || f <= -2*nn+k/2+guard {
			continue
		}
		clean[b] = true
	}
	return clean
}

// CleanBinCount returns how many observation bins the demodulator uses.
func (d *ScatterDemod) CleanBinCount() int {
	c := 0
	for _, b := range d.cleanBin {
		if b {
			c++
		}
	}
	return c
}

// Reset clears burst state (sync and channel estimate).
func (d *ScatterDemod) Reset() { d.haveSync = false; d.chanEst = nil }

// checkInputs validates buffer lengths and the subframe index so API misuse
// fails with a message instead of an index panic deep in the DSP.
func (d *ScatterDemod) checkInputs(rx, refSamples []complex128, subframe int) {
	p := d.cfg.Params
	need := p.Oversample * p.BW.SamplesPerSubframe()
	if len(rx) != need {
		panic(fmt.Sprintf("ue: rx holds %d samples, a %s subframe needs %d", len(rx), p.BW, need))
	}
	if len(refSamples) != need {
		panic(fmt.Sprintf("ue: reference holds %d samples, want %d", len(refSamples), need))
	}
	if subframe < 0 || subframe >= ltephy.SubframesPerFrame {
		panic(fmt.Sprintf("ue: subframe %d out of [0,10)", subframe))
	}
}

// mixerTable returns the downshift phasors exp(-j*2*pi*m/ov) for every
// remainder m = n % ov a stream position n can give, negative ones included:
// entry m + ov - 1 holds the phasor of m in [-(ov-1), ov-1].
func mixerTable(ov int) []complex128 {
	tab := make([]complex128, 2*ov-1)
	for m := -(ov - 1); m < ov; m++ {
		ph := -2 * math.Pi * float64(m) / float64(ov)
		tab[m+ov-1] = cmplx.Exp(complex(0, ph))
	}
	return tab
}

// downshift fills the z scratch with x multiplied by
// exp(-j*2*pi*n/Oversample): it moves the upper backscatter sideband at
// +1/Ts to baseband. startSample anchors the mixer phase to the absolute
// stream position.
func (d *ScatterDemod) downshift(x []complex128, startSample int) []complex128 {
	ov := d.cfg.Params.Oversample
	out := d.scrZ[:len(x)]
	for i := range x {
		out[i] = x[i] * d.mixer[(startSample+i)%ov+ov-1]
	}
	return out
}

// symbolSpectrum FFTs the useful window of symbol l from the downshifted
// subframe into dst (length n) and returns it.
func (d *ScatterDemod) symbolSpectrum(dst, z []complex128, l int) []complex128 {
	start := ltephy.UsefulStart(d.cfg.Params, l)
	d.plan.Forward(dst, z[start:start+d.n])
	return dst
}

// refWaveUnit computes the downshifted phase-0 switch waveform over one
// unit: wave[m][0] * exp(-j*2*pi*m/ov). It runs once at construction; the
// hot paths read the cached d.wave.
func (d *ScatterDemod) refWaveUnit() []complex128 {
	ov := d.cfg.Params.Oversample
	w := make([]complex128, ov)
	for m := 0; m < ov; m++ {
		var base complex128
		switch d.cfg.Mode {
		case tag.DSB:
			if m < ov/2 {
				base = 1
			} else {
				base = -1
			}
		case tag.SSB:
			a := 2 * math.Pi * float64(m) / float64(ov)
			base = complex(math.Cos(a), math.Sin(a))
		}
		ph := -2 * math.Pi * float64(m) / float64(ov)
		w[m] = base * cmplx.Exp(complex(0, ph))
	}
	return w
}

// hybridTime reconstructs the time-domain hybrid estimate for symbol l into
// dst (length n): FFT -> keep clean bins -> optional equalization -> IFFT.
// The result approximates g * x_ref[n] * s[n] over the useful window.
func (d *ScatterDemod) hybridTime(dst, z []complex128, l int, equalize bool) []complex128 {
	spec := d.symbolSpectrum(d.scrSpec, z, l)
	for b := range spec {
		if !d.cleanBin[b] {
			spec[b] = 0
			continue
		}
		if equalize && d.chanEst != nil {
			g := d.chanEst[b]
			if g != 0 {
				spec[b] /= g
			} else {
				spec[b] = 0
			}
		}
	}
	d.plan.Inverse(dst, spec)
	return dst
}

// unitMetrics computes the per-unit complex decision metrics for symbol l at
// the given sub-unit sample offset: metric[u] = sum over the unit's samples
// [u*ov+sub, u*ov+sub+ov) of hybrid * conj(x_ref * wave). A positive real
// part means phase 0 (bit '1' in the paper's convention), negative means
// phase pi (bit '0').
func (d *ScatterDemod) unitMetrics(hyb, refSamples []complex128, l, sub int) []complex128 {
	p := d.cfg.Params
	ov := p.Oversample
	refStart := ltephy.UsefulStart(p, l)
	wave := d.wave
	units := d.nNom
	out := d.scrMetrics[:units]
	for u := 0; u < units; u++ {
		var acc complex128
		for m := 0; m < ov; m++ {
			i := u*ov + sub + m
			if i >= d.n {
				break
			}
			ref := refSamples[refStart+i] * wave[m]
			acc += hyb[i] * cmplx.Conj(ref)
		}
		out[u] = acc
	}
	return out
}

// windowStartUnitInSymbol mirrors the tag's nominal window placement: the
// useful-modulation window centered in the useful symbol. Expressed in units
// from the start of the useful part.
func (d *ScatterDemod) windowStartUnitInSymbol() int {
	return (d.nNom - d.cfg.Params.UsefulModulationUnits()) / 2
}

// AcquireBurst processes a burst-opening subframe: it locates the preamble
// in the first modulated symbol, estimates the modulation offset and the
// per-bin backscatter channel, and stores both for subsequent subframes.
// rx must hold one subframe of received samples aligned to the boundary;
// refSamples is the regenerated clean excitation from the LTE receiver.
func (d *ScatterDemod) AcquireBurst(rx, refSamples []complex128, subframe, startSample int) *ScatterResult {
	d.checkInputs(rx, refSamples, subframe)
	z := d.downshift(rx, startSample)
	p := d.cfg.Params
	syms := modulatedSymbols(subframe)
	preSym := syms[0]
	hyb := d.hybridTime(d.scrHyb, z, preSym, false)

	// Offset search at sample granularity: the tag's clock may sit anywhere
	// within a basic-timing unit, so the search sweeps the configured tag
	// identities, the unit offset (§3.3.2's modulation offset) and the
	// sub-unit sample offset. The common phase is unknown at this point, so
	// correlate on the complex metric and take the magnitude. The sweep over
	// unit offsets against every tag's ±1 sign sequence is exactly a batch
	// cross-correlation, served by the precomputed preamble bank; the
	// normalization sum of |metric| reuses magnitudes computed once per
	// sub-unit offset instead of once per candidate window.
	nBits := d.preBank.RefLen()
	tagIDs := d.tagIDs
	nominal := d.windowStartUnitInSymbol()
	lo := nominal - offsetSearch
	if lo < 0 {
		lo = 0
	}
	hi := nominal + offsetSearch
	if max := d.nNom - nBits; hi > max {
		hi = max
	}
	bestOff, bestSub, bestID, bestVal := 0, 0, tagIDs[0], -1.0
	for sub := 0; sub < p.Oversample && lo <= hi; sub++ {
		metrics := d.unitMetrics(hyb, refSamples, preSym, sub)
		absM := d.scrAbsM[:len(metrics)]
		for i, m := range metrics {
			absM[i] = cmplx.Abs(m)
		}
		corrs := d.preBank.CorrelateAll(d.scrCorr, metrics[lo:hi+nBits])
		d.scrCorr = corrs
		for w0 := lo; w0 <= hi; w0++ {
			var norm float64
			for i := 0; i < nBits; i++ {
				norm += absM[w0+i]
			}
			if norm == 0 {
				continue
			}
			for t := range tagIDs {
				if v := cmplx.Abs(corrs[t][w0-lo]) / norm; v > bestVal {
					bestVal, bestOff, bestSub, bestID = v, w0-nominal, sub, tagIDs[t]
				}
			}
		}
	}
	res := &ScatterResult{OffsetUnits: bestOff, TagID: bestID, PreambleCorr: bestVal}
	if bestVal < 0.5 {
		d.haveSync = false
		return res
	}
	res.Synced = true
	d.haveSync = true
	d.offset = bestOff
	d.subOff = bestSub

	// Channel estimation over clean bins: G(b) = Y(b) / X_pre(b), where
	// X_pre is the spectrum of the known preamble-modulated reference,
	// smoothed across bins.
	d.chanEst = d.estimateChannel(z, refSamples, preSym, tag.PreambleFor(bestID, nBits))
	return res
}

// buildExpect fills expect with the model hybrid x_ref * wave * s over the
// useful window of symbol l, honoring the burst's unit and sub-unit offsets.
// sign(u) returns the switch sign of window-relative unit u.
func (d *ScatterDemod) buildExpect(expect, refSamples []complex128, l int, sign func(u int) float64) {
	p := d.cfg.Params
	ov := p.Oversample
	refStart := ltephy.UsefulStart(p, l)
	wave := d.wave
	for rel := 0; rel < d.n; rel++ {
		local := rel - d.subOff
		u := local / ov
		m := local % ov
		if m < 0 {
			m += ov
			u--
		}
		expect[rel] = refSamples[refStart+rel] * wave[m] * complex(sign(u), 0)
	}
}

// estimateChannel builds the per-bin backscatter channel estimate from the
// preamble symbol.
func (d *ScatterDemod) estimateChannel(z, refSamples []complex128, preSym int, pre []byte) []complex128 {
	// Build the expected downshifted hybrid: ref * wave * s(preamble, offset).
	// The offset search is over by now, so its hyb scratch is free to hold
	// the received spectrum.
	expect := d.scrExpect
	w0 := d.windowStartUnitInSymbol() + d.offset
	d.buildExpect(expect, refSamples, preSym, func(u int) float64 {
		if idx := u - w0; idx >= 0 && idx < len(pre) && pre[idx] == 0 {
			return -1
		}
		return 1
	})
	expSpec := d.scrSpec
	d.plan.Forward(expSpec, expect)
	got := d.symbolSpectrum(d.scrHyb, z, preSym)
	// Energy-weighted local least squares (maximum-ratio style): bins where
	// the expected spectrum is strong dominate the estimate, so spectral
	// nulls of the excitation do not inject noise.
	out := make([]complex128, d.n)
	for b := range out {
		if !d.cleanBin[b] {
			continue
		}
		var num complex128
		var den float64
		for j := -smoothBins; j <= smoothBins; j++ {
			bb := (b + j + d.n) % d.n
			if !d.cleanBin[bb] {
				continue
			}
			e := expSpec[bb]
			num += got[bb] * cmplx.Conj(e)
			den += real(e)*real(e) + imag(e)*imag(e)
		}
		if den > 0 {
			out[b] = num / complex(den, 0)
		}
	}
	return out
}

// modulatedSymbols mirrors the tag's schedule.
func modulatedSymbols(subframe int) []int { return tag.DataSymbols(subframe) }

// DemodSubframe demodulates all data symbols of a subframe using the burst
// state from the last AcquireBurst. skipFirst drops the first modulated
// symbol (the preamble) — set it on burst-opening subframes.
func (d *ScatterDemod) DemodSubframe(rx, refSamples []complex128, subframe, startSample int, skipFirst bool) *ScatterResult {
	if !d.haveSync {
		return &ScatterResult{Synced: false, OffsetUnits: d.offset}
	}
	d.checkInputs(rx, refSamples, subframe)
	z := d.downshift(rx, startSample)
	res := &ScatterResult{Synced: d.haveSync, OffsetUnits: d.offset}
	p := d.cfg.Params
	nBits := p.UsefulModulationUnits()
	w0 := d.windowStartUnitInSymbol() + d.offset
	syms := modulatedSymbols(subframe)
	if skipFirst {
		syms = syms[1:]
	}
	for _, l := range syms {
		hyb := d.hybridTime(d.scrHyb, z, l, true)
		metrics := d.unitMetrics(hyb, refSamples, l, d.subOff)
		bitsOut := make([]byte, nBits)
		for i := 0; i < nBits; i++ {
			if real(metrics[w0+i]) >= 0 {
				bitsOut[i] = 1 // phase 0 -> data '1'
			} else {
				bitsOut[i] = 0
			}
		}
		q := d.refine(hyb, refSamples, l, w0, bitsOut)
		res.Decisions = append(res.Decisions, SymbolDecision{
			Symbol:  l,
			Bits:    bitsOut,
			Quality: q,
		})
	}
	return res
}

// refine runs the Eq. 7 least-squares minimization: given initial bit
// decisions it reconstructs the band-limited hybrid F^-1(mask * F(x*w*s)),
// subtracts it to expose the inter-unit interference created by the clean-bin
// band limitation, and re-slices each unit with its own contribution restored
// (the band-limiter's time-domain diagonal is cleanBins/n exactly). Bits are
// updated in place; the mean normalized decision margin is returned.
func (d *ScatterDemod) refine(hyb, refSamples []complex128, l, w0 int, bitsOut []byte) float64 {
	p := d.cfg.Params
	ov := p.Oversample
	refStart := ltephy.UsefulStart(p, l)
	wave := d.wave
	sub := d.subOff
	// Reference r[rel] = x_ref * wave over the useful window at the burst's
	// sub-unit alignment, and per-unit energies T_u over the unit's samples
	// [u*ov+sub, u*ov+sub+ov).
	ref := d.scrRef
	for rel := 0; rel < d.n; rel++ {
		local := rel - sub
		m := local % ov
		if m < 0 {
			m += ov
		}
		ref[rel] = refSamples[refStart+rel] * wave[m]
	}
	sampleOf := func(u, m int) int { return u*ov + sub + m }
	tU := d.scrTU[:d.nNom]
	for u := 0; u < d.nNom; u++ {
		var e float64
		for m := 0; m < ov; m++ {
			i := sampleOf(u, m)
			if i >= d.n {
				break
			}
			v := ref[i]
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		tU[u] = e
	}
	// Exact own-unit retained energy under the clean-bin projection B:
	// alpha_u = sum_{m,m' in u} kappa[m-m'] ref[m'] conj(ref[m]), with
	// kappa = IFFT of the clean-bin indicator (the projection's kernel,
	// precomputed at construction).
	kTime := d.kTime
	alpha := d.scrAlpha[:d.nNom]
	for u := 0; u < d.nNom; u++ {
		var acc complex128
		for m := 0; m < ov; m++ {
			for mp := 0; mp < ov; mp++ {
				im, imp := sampleOf(u, m), sampleOf(u, mp)
				if im >= d.n || imp >= d.n {
					continue
				}
				kv := kTime[((m-mp)%d.n+d.n)%d.n]
				acc += kv * ref[imp] * cmplx.Conj(ref[im])
			}
		}
		alpha[u] = real(acc)
	}
	kappa0 := float64(d.CleanBinCount()) / float64(d.n)
	// Initial residual e = hyb - B(ref * s) with the starting decisions
	// (idle units carry s = +1).
	expect := d.scrExpect
	spec := d.scrSpec
	d.buildExpect(expect, refSamples, l, func(u int) float64 {
		if i := u - w0; i >= 0 && i < len(bitsOut) && bitsOut[i] == 0 {
			return -1
		}
		return 1
	})
	d.plan.Forward(spec, expect)
	for b := range spec {
		if !d.cleanBin[b] {
			spec[b] = 0
		}
	}
	d.plan.Inverse(expect, spec)
	e := d.scrResid
	for i := range e {
		e[i] = hyb[i] - expect[i]
	}
	// corrOf is Re<e, a_u> for the unit's band-limited contribution a_u
	// (e lies in the projection subspace, so <e, B a_u> = <e, a_u>).
	corrOf := func(u int) float64 {
		var acc complex128
		for m := 0; m < ov; m++ {
			idx := sampleOf(u, m)
			if idx >= d.n {
				break
			}
			acc += e[idx] * cmplx.Conj(ref[idx])
		}
		return real(acc)
	}
	signOf := func(i int) float64 {
		if bitsOut[i] == 0 {
			return -1
		}
		return 1
	}
	// applyFlip updates bits and the residual for a sign change of unit
	// w0+i: expect changes by -2*sOld*B(a_u), so e gains +2*sOld*B(a_u).
	applyFlip := func(i int) {
		u := w0 + i
		sOld := signOf(i)
		if bitsOut[i] == 0 {
			bitsOut[i] = 1
		} else {
			bitsOut[i] = 0
		}
		for m := 0; m < ov; m++ {
			src := sampleOf(u, m)
			if src >= d.n {
				break
			}
			v := complex(2*sOld, 0) * ref[src]
			for rel := 0; rel < d.n; rel++ {
				e[rel] += kTime[((rel-src)%d.n+d.n)%d.n] * v
			}
		}
	}
	// beta is the cross term Re<B a_i, B a_j> between two units.
	beta := func(ui, uj int) float64 {
		var acc complex128
		for m := 0; m < ov; m++ {
			im := sampleOf(ui, m)
			if im >= d.n {
				break
			}
			for mp := 0; mp < ov; mp++ {
				imp := sampleOf(uj, mp)
				if imp >= d.n {
					break
				}
				acc += cmplx.Conj(ref[im]) * kTime[((im-imp)%d.n+d.n)%d.n] * ref[imp]
			}
		}
		return real(acc)
	}
	// Coordinate descent on the Eq. 7 objective, with exact adjacent-pair
	// moves to escape the pairwise local minima that single flips cannot
	// leave (two neighboring low-energy units interfering through the
	// band-limiting kernel). Every accepted move strictly decreases the
	// residual energy, so the sweeps cannot oscillate.
	var quality float64
	for it := 0; it < maxIntOf(d.cfg.RefineIters, 1); it++ {
		quality = 0
		flips := 0
		for i := range bitsOut {
			u := w0 + i
			mu := corrOf(u) + signOf(i)*alpha[u]
			if d.cfg.RefineIters > 0 {
				want := byte(0)
				if mu >= 0 {
					want = 1
				}
				if want != bitsOut[i] {
					applyFlip(i)
					flips++
				}
			}
			if t := kappa0 * tU[u]; t > 0 {
				quality += math.Abs(mu) / t
			}
		}
		quality /= float64(len(bitsOut))
		if d.cfg.RefineIters == 0 {
			break
		}
		// Adjacent-pair pass: for each pair evaluate the exact energy change
		// of the three alternative sign combinations via the quadratic form
		// dE = -2 di Re<e,a_i> - 2 dj Re<e,a_j> + di^2 alpha_i + dj^2 alpha_j
		//      + 2 di dj beta_ij, with di = sNew - sCur in {0, ±2}.
		for i := 0; i+1 < len(bitsOut); i++ {
			ui, uj := w0+i, w0+i+1
			ci, cj := corrOf(ui), corrOf(uj)
			b := beta(ui, uj)
			si, sj := signOf(i), signOf(i+1)
			bestDE, bestMove := -1e-9*(tU[ui]+tU[uj]+1e-30), -1
			for move := 1; move < 4; move++ {
				di, dj := 0.0, 0.0
				if move&1 != 0 {
					di = -2 * si
				}
				if move&2 != 0 {
					dj = -2 * sj
				}
				dE := -2*di*ci - 2*dj*cj + di*di*alpha[ui] + dj*dj*alpha[uj] + 2*di*dj*b
				if dE < bestDE {
					bestDE, bestMove = dE, move
				}
			}
			if bestMove > 0 {
				if bestMove&1 != 0 {
					applyFlip(i)
				}
				if bestMove&2 != 0 {
					applyFlip(i + 1)
				}
				flips++
			}
		}
		if flips == 0 {
			break
		}
	}
	return quality
}

func maxIntOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
