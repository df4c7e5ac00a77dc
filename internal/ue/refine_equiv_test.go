package ue

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"lscatter/internal/ltephy"
	"lscatter/internal/tag"
)

// refRefine is the refine that the division-free one replaced, kept
// verbatim as the reference apart from reading the single kernel copy out of
// kTime2: it computes T_u and alpha_u for every unit, indexes kappa with two
// modulos per access and updates the residual in one pass per flipped
// sample. Its doc follows.
//
// refine runs the Eq. 7 least-squares minimization: given initial bit
// decisions it reconstructs the band-limited hybrid F^-1(mask * F(x*w*s)),
// subtracts it to expose the inter-unit interference created by the clean-bin
// band limitation, and re-slices each unit with its own contribution restored
// (the band-limiter's time-domain diagonal is cleanBins/n exactly). Bits are
// updated in place; the mean normalized decision margin is returned.
func refRefine(d *ScatterDemod, hyb, refSamples []complex128, l, w0 int, bitsOut []byte) float64 {
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
	kTime := d.kTime2[:d.n]
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

// refineCase draws one refine input: a random data symbol, decision window
// and sub-unit offset, a random excitation, and a random hybrid or, with
// model set, the band-limited model hybrid of random bits plus noise, with
// the starting decisions those bits with a few flipped.
func refineCase(r *rand.Rand, d *ScatterDemod, model bool) (hyb, refSamples []complex128, l, w0 int, bits []byte) {
	p := d.cfg.Params
	ov := p.Oversample
	nBits := p.UsefulModulationUnits()
	d.subOff = r.Intn(ov)
	w0 = r.Intn(d.nNom - nBits + 1)
	if r.Intn(3) == 0 {
		w0 = d.nNom - nBits // last unit clipped when subOff > 0
	}
	syms := tag.DataSymbols(r.Intn(ltephy.SubframesPerFrame))
	l = syms[r.Intn(len(syms))]
	refSamples = make([]complex128, ov*p.BW.SamplesPerSubframe())
	for i := range refSamples {
		refSamples[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	bits = make([]byte, nBits)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	hyb = make([]complex128, d.n)
	if !model {
		for i := range hyb {
			hyb[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		return hyb, refSamples, l, w0, bits
	}
	d.buildExpect(hyb, refSamples, l, func(u int) float64 {
		if i := u - w0; i >= 0 && i < nBits && bits[i] == 0 {
			return -1
		}
		return 1
	})
	d.plan.Forward(hyb, hyb)
	for b := range hyb {
		if !d.cleanBin[b] {
			hyb[b] = 0
		}
	}
	d.plan.Inverse(hyb, hyb)
	for i := range hyb {
		hyb[i] += complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	for k := r.Intn(nBits / 4); k > 0; k-- {
		bits[r.Intn(nBits)] ^= 1
	}
	return hyb, refSamples, l, w0, bits
}

// TestRefineMatchesReference requires bit-identical decisions and quality
// from refine and the reference over random symbols, offsets and bit
// patterns, at the oversampling factor the receiver runs (4, the unrolled
// flip pass) and others (the general one, Bluestein sizes at 3), with
// refinement off (RefineIters == 0 after NewScatterDemod) and with one to
// four sweeps.
func TestRefineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, bw := range []ltephy.Bandwidth{ltephy.BW1_4, ltephy.BW5} {
		for _, ov := range []int{2, 3, 4, 8} {
			p := ltephy.DefaultParams(bw)
			p.Oversample = ov
			for _, iters := range []int{-1, 1, 2, 4} {
				cfg := DefaultScatterConfig(p)
				cfg.RefineIters = iters
				d := NewScatterDemod(cfg)
				for trial := 0; trial < 3; trial++ {
					hyb, refSamples, l, w0, bits := refineCase(r, d, r.Intn(2) == 0)
					want := append([]byte(nil), bits...)
					wantQ := refRefine(d, hyb, refSamples, l, w0, want)
					// The reference filled T_u and alpha for every unit;
					// poison them so that refine cannot pass by reading an
					// entry outside the window it computes.
					for u := range d.scrTU {
						d.scrTU[u], d.scrAlpha[u] = math.NaN(), math.NaN()
					}
					got := append([]byte(nil), bits...)
					gotQ := d.refine(hyb, refSamples, l, w0, got)
					if math.Float64bits(gotQ) != math.Float64bits(wantQ) {
						t.Fatalf("%s ov=%d iters=%d trial %d: quality %v, want %v", bw, ov, iters, trial, gotQ, wantQ)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s ov=%d iters=%d trial %d: bit %d is %d, want %d", bw, ov, iters, trial, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkRefine times refine and the reference on one 5 MHz symbol of the
// model hybrid at 4x oversampling, starting from decisions with a few
// errors.
func BenchmarkRefine(b *testing.B) {
	d := NewScatterDemod(DefaultScatterConfig(ltephy.DefaultParams(ltephy.BW5)))
	hyb, refSamples, l, w0, bits := refineCase(rand.New(rand.NewSource(5)), d, true)
	buf := make([]byte, len(bits))
	for _, c := range []struct {
		name string
		fn   func(hyb, refSamples []complex128, l, w0 int, bits []byte) float64
	}{
		{"ref", func(h, rs []complex128, l, w0 int, bs []byte) float64 { return refRefine(d, h, rs, l, w0, bs) }},
		{"fast", d.refine},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, bits)
				c.fn(hyb, refSamples, l, w0, buf)
			}
		})
	}
}
