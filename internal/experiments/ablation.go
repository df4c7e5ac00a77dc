package experiments

import (
	"fmt"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/scatterframe"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

func init() {
	register("A1", AblationRefinement)
	register("A2", AblationSideband)
	register("A3", AblationPSSBoost)
	register("A4", AblationOversampling)
	register("A5", AblationCoding)
}

// chain is the ablations' bit-true 1.4 MHz link: a -40 dB direct path and
// a -70 dB tag path, with the design knobs the ablations sweep.
type chain struct {
	oversample  int      // waveform oversampling factor
	mode        tag.Mode // tag switching scheme
	timingErr   int      // tag timing error in basic-timing units
	refineIters int      // Eq. 7 refinement passes; 0 disables refinement
	record      bool     // keep the per-bit error pattern (DemodSink.Pattern)
}

// baseChain is the setting A1, A2, A4 and V1 vary one knob of.
var baseChain = chain{oversample: 4, mode: tag.DSB, timingErr: 3, refineIters: 2}

// run runs the chain for a few subframes with noise noiseRelDB below the
// scatter power and returns the UE's sink.
func (c chain) run(noiseRelDB float64, subframes int, seed uint64) *simlink.DemodSink {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	p.Oversample = c.oversample
	ecfg := enodeb.Config{Params: p, Scheme: enodeb.DefaultConfig(p.BW).Scheme, TxPowerDBm: 10, Seed: seed}
	enb := enodeb.New(ecfg)
	r := rng.New(seed + 7)
	mod := tag.NewModulator(tag.ModConfig{
		Params:           p,
		Mode:             c.mode,
		TimingErrorUnits: c.timingErr,
		SampleOffset:     1,
	})
	mod.QueueBits(r.Bits(make([]byte, subframes*12*mod.PerSymbolBits())))
	lteRx := ue.NewLTEReceiver(p, ecfg.Scheme)
	scfg := ue.DefaultScatterConfig(p)
	scfg.Mode = c.mode
	scfg.RefineIters = c.refineIters
	if c.refineIters == 0 {
		scfg.RefineIters = -1 // explicit disable
	}
	sc := ue.NewScatterDemod(scfg)

	const directGainDB = -40
	const scatterGainDB = -70
	scatP := 0.01 * channelFromDB(scatterGainDB)
	noiseW := scatP * channelFromDB(noiseRelDB)
	sink := &simlink.DemodSink{LTE: lteRx, Scatter: sc, RecordPattern: c.record}
	sess := &simlink.Session{
		Source: enb,
		Direct: simlink.GainDB(directGainDB),
		Tags:   []*simlink.Tag{{Mod: mod, Path: simlink.GainDB(scatterGainDB)}},
		Link:   channel.NewLink(r.Fork(1), noiseW),
		Sink:   sink,
	}
	sess.Run(subframes)
	return sink
}

// ber runs the chain and returns the measured backscatter BER.
func (c chain) ber(noiseRelDB float64, subframes int, seed uint64) float64 {
	return c.run(noiseRelDB, subframes, seed).Totals().BER()
}

func channelFromDB(db float64) float64 { return channel.DBmToWatts(db + 30) }

// AblationCoding compares uncoded 240-bit frames against rate-1/2 coded
// frames over the same measured error pattern of the bit-true chain.
func AblationCoding(seed uint64) *Result {
	res := &Result{
		ID:     "A5",
		Title:  "Ablation: link-layer FEC (rate-1/2 K=7 + interleaving) on the backscatter link",
		Header: []string{"chain SNR", "raw BER", "uncoded frames OK", "coded frames OK", "coded goodput factor"},
	}
	codec := scatterframe.NewCodec()
	const payloadBits = 240
	// The error process does not depend on payload content, so the chain's
	// per-bit error pattern replays over coded and uncoded framings of the
	// same link.
	c := baseChain
	c.timingErr, c.record = 2, true
	for _, rel := range []float64{-22, -17, -14} {
		pattern := c.run(rel, 6, seed).Pattern
		errs := 0
		for _, e := range pattern {
			if e {
				errs++
			}
		}
		rawBER := float64(errs) / float64(len(pattern))
		// Uncoded framing.
		unOK, unTot := 0, 0
		for i := 0; i+payloadBits <= len(pattern); i += payloadBits {
			ok := true
			for _, e := range pattern[i : i+payloadBits] {
				if e {
					ok = false
					break
				}
			}
			unTot++
			if ok {
				unOK++
			}
		}
		// Coded framing over the same pattern.
		r := rng.New(seed + 5)
		codedLen := codec.EncodedLen(payloadBits)
		cdOK, cdTot := 0, 0
		for i := 0; i+codedLen <= len(pattern); i += codedLen {
			payload := r.Bits(make([]byte, payloadBits))
			coded := codec.Encode(payload)
			for j, e := range pattern[i : i+codedLen] {
				if e {
					coded[j] ^= 1
				}
			}
			got, ok := codec.Decode(coded)
			cdTot++
			if ok && bitsEqual(got, payload) {
				cdOK++
			}
		}
		unRate := frac(unOK, unTot)
		cdRate := frac(cdOK, cdTot)
		factor := "-"
		if unRate > 0 {
			// goodput = frames/s x payload; coded sends half the frames.
			factor = fmt.Sprintf("%.2f", cdRate*0.5/unRate)
		} else if cdRate > 0 {
			factor = "inf"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%+.0f dB", -rel), f3(rawBER),
			fmt.Sprintf("%.2f", unRate), fmt.Sprintf("%.2f", cdRate), factor,
		})
	}
	res.Notes = append(res.Notes,
		"at raw BERs of a few percent, uncoded frames all die while rate-1/2 coding keeps the link alive at half the raw rate",
		"the paper reports uncoded BER only; this quantifies the natural deployment extension")
	return res
}

func bitsEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// AblationRefinement sweeps the Eq. 7 refinement iteration count and reports
// BER at two noise levels: the refinement is what removes the clean-bin
// band-limiting floor.
func AblationRefinement(seed uint64) *Result {
	res := &Result{
		ID:     "A1",
		Title:  "Ablation: Eq. 7 refinement passes vs BER (1.4 MHz chain)",
		Header: []string{"refine iters", "BER clean", "BER @18dB"},
	}
	for _, iters := range []int{0, 1, 2, 4} {
		c := baseChain
		c.refineIters = iters
		clean, noisy := c.ber(-80, 3, seed), c.ber(-18, 3, seed)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", iters), fber(clean), fber(noisy)})
	}
	res.Notes = append(res.Notes,
		"iteration 0 = plain matched-filter slicing: a residual inter-unit-interference floor remains",
		"two passes suffice; this is the tractable closed form of the paper's Eq. 7 argmin (DESIGN.md)")
	return res
}

// AblationSideband compares DSB square-wave switching against quadrature
// SSB (HitchHike-style image rejection) at matched noise.
func AblationSideband(seed uint64) *Result {
	res := &Result{
		ID:     "A2",
		Title:  "Ablation: DSB vs SSB switching (1.4 MHz chain)",
		Header: []string{"mode", "BER @20dB", "BER @14dB"},
	}
	for _, m := range []struct {
		name string
		mode tag.Mode
	}{{"DSB", tag.DSB}, {"SSB", tag.SSB}} {
		c := baseChain
		c.mode = m.mode
		hi, lo := c.ber(-20, 3, seed), c.ber(-14, 3, seed)
		res.Rows = append(res.Rows, []string{m.name, fber(hi), fber(lo)})
	}
	res.Notes = append(res.Notes,
		"SSB concentrates the reflected first harmonic in the used sideband (~3.9 dB) at the cost of a quadrature switching network (§3.2.2)")
	return res
}

// AblationPSSBoost sweeps the PSS power boost and reports the sync circuit's
// detection performance: the envelope detector needs the PSS to stand out.
func AblationPSSBoost(seed uint64) *Result {
	res := &Result{
		ID:     "A3",
		Title:  "Ablation: PSS power boost vs analog sync detection",
		Header: []string{"boost (dB)", "detections/40 PSS", "false/extra"},
	}
	for _, boost := range []float64{0, 3, 6, 9} {
		cfg := enodeb.DefaultConfig(ltephy.BW1_4)
		cfg.Seed = seed
		cfg.Params.PSSBoostDB = boost
		enb := enodeb.New(cfg)
		sc := tag.NewSyncCircuit(cfg.Params, tag.SyncConfig{})
		dets := 0
		// Tag-side monitor: no Link, so the frame aliases the raw downlink.
		sess := &simlink.Session{Source: enb, Sink: simlink.SinkFunc(func(f *simlink.Frame) bool {
			dets += len(sc.Process(f.RX))
			return true
		})}
		sess.Run(200) // 200 ms = 40 PSS occurrences
		// With the 10 ms warmup ~38 detectable PSS remain.
		extra := 0
		if dets > 38 {
			extra = dets - 38
		}
		res.Rows = append(res.Rows, []string{f1(boost), fmt.Sprintf("%d", dets), fmt.Sprintf("%d", extra)})
	}
	res.Notes = append(res.Notes,
		"without a boost the PSS envelope is indistinguishable from PDSCH in the narrowband front end; +6 dB (the default) detects essentially every PSS")
	return res
}

// AblationOversampling compares waveform oversampling factors: 4x (default)
// vs 8x (captures the switch's third harmonic in-band).
func AblationOversampling(seed uint64) *Result {
	res := &Result{
		ID:     "A4",
		Title:  "Ablation: waveform oversampling factor (1.4 MHz chain)",
		Header: []string{"oversample", "BER clean", "BER @18dB", "synced"},
	}
	for _, ov := range []int{4, 8} {
		c := baseChain
		c.oversample = ov
		cleanSink := c.run(-80, 3, seed)
		clean, s1 := cleanSink.Totals().BER(), cleanSink.Synced
		noisy := c.ber(-18, 3, seed)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%dx", ov), fber(clean), fber(noisy), fmt.Sprintf("%v", s1)})
	}
	res.Notes = append(res.Notes,
		"4x suffices: the square wave's first harmonic is fully represented; 8x adds the third harmonic (and cost) without changing the decisions",
		"2x is excluded by construction — at Nyquist the DSB image aliases onto the hybrid band")
	return res
}
