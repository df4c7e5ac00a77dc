package tag

import (
	"math"
	"math/cmplx"
	"testing"

	"lscatter/internal/dsp"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
)

func ambientSubframe(t testing.TB, bw ltephy.Bandwidth, sf int) ([]complex128, ltephy.Params) {
	t.Helper()
	cfg := enodeb.DefaultConfig(bw)
	e := enodeb.New(cfg)
	var s *enodeb.Subframe
	for i := 0; i <= sf; i++ {
		s = e.NextSubframe()
	}
	return s.Samples, cfg.Params
}

func TestDataSymbolsSchedule(t *testing.T) {
	// Non-sync subframes: symbols 2..13.
	ds := DataSymbols(1)
	if len(ds) != 12 || ds[0] != 2 || ds[len(ds)-1] != 13 {
		t.Fatalf("data symbols for sf1 = %v", ds)
	}
	// Sync subframes skip symbols 5 and 6.
	ds = DataSymbols(0)
	if len(ds) != 10 {
		t.Fatalf("data symbols for sf0 = %v", ds)
	}
	for _, l := range ds {
		if l == ltephy.PSSSymbolIndex || l == ltephy.SSSSymbolIndex {
			t.Fatalf("sync symbol %d scheduled for modulation", l)
		}
	}
}

func TestPreambleDeterministic(t *testing.T) {
	a, b := PreambleFor(0, 1200), PreambleFor(0, 1200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("preamble not deterministic")
		}
	}
	ones := 0
	for _, v := range a {
		ones += int(v)
	}
	if ones < 450 || ones > 750 {
		t.Fatalf("preamble imbalance: %d ones of 1200", ones)
	}
}

func TestModulatorReflectionLoss(t *testing.T) {
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p, ReflectionLossDB: 6})
	out, _ := m.ModulateSubframe(ambient, 1, false)
	// |w|=1 switching: output power = ambient power - 6 dB.
	ratio := dsp.Power(out) / dsp.Power(ambient)
	if math.Abs(dsp.DB(ratio)+6) > 0.2 {
		t.Fatalf("reflection ratio = %v dB, want -6", dsp.DB(ratio))
	}
}

func TestModulatorShiftsSpectrumOutOfBand(t *testing.T) {
	// The hybrid signal's energy must sit around ±1/Ts, outside the original
	// LTE band (Eq. 4): the in-band region of the reflected signal must be
	// nearly empty.
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p})
	out, _ := m.ModulateSubframe(ambient, 1, true)
	n := p.BW.FFTSize() * p.Oversample
	start := ltephy.UsefulStart(p, 3)
	spec := dsp.FFT(append([]complex128(nil), out[start:start+n]...))
	k := p.BW.Subcarriers()
	nn := p.BW.FFTSize()
	var inBand, shifted float64
	for b, v := range spec {
		f := b
		if f > n/2 {
			f -= n
		}
		pw := real(v)*real(v) + imag(v)*imag(v)
		switch {
		case f >= -k/2 && f <= k/2:
			inBand += pw
		case f >= nn-k/2 && f <= nn+k/2:
			shifted += pw
		}
	}
	if inBand > 0.01*shifted {
		t.Fatalf("in-band leakage %v vs shifted %v", inBand, shifted)
	}
}

func TestModulatorPreservesPSSSymbol(t *testing.T) {
	// During PSS/SSS symbols the tag transmits plain (phase-0) square waves:
	// no phase flips may occur inside those symbols.
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 0)
	m := NewModulator(ModConfig{Params: p})
	out, recs := m.ModulateSubframe(ambient, 0, true)
	for _, r := range recs {
		if r.Symbol == ltephy.PSSSymbolIndex || r.Symbol == ltephy.SSSSymbolIndex {
			t.Fatalf("record for sync symbol %d", r.Symbol)
		}
	}
	// Verify waveform: over the PSS symbol the ratio out/ambient must be a
	// pure phase-0 square wave (constant pattern repeated per unit).
	ov := p.Oversample
	start := ltephy.SymbolStart(p, ltephy.PSSSymbolIndex)
	end := start + p.UnitsPerSymbol(ltephy.PSSSymbolIndex%ltephy.SymbolsPerSlot)*ov
	var base []complex128
	for s := start; s < end; s++ {
		if cmplx.Abs(ambient[s]) < 1e-6 {
			continue
		}
		w := out[s] / ambient[s]
		if base == nil {
			base = make([]complex128, ov)
		}
		idx := s % ov
		if base[idx] == 0 {
			base[idx] = w
		} else if cmplx.Abs(base[idx]-w) > 1e-9 {
			t.Fatalf("switch waveform not constant over PSS symbol at sample %d", s)
		}
	}
}

func TestModulatorEmbedsBitsAsPhaseFlips(t *testing.T) {
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p})
	r := rng.New(7)
	m.QueueBits(r.Bits(make([]byte, 12*p.UsefulModulationUnits())))
	out, recs := m.ModulateSubframe(ambient, 1, false)
	if len(recs) != 12 {
		t.Fatalf("%d records, want 12", len(recs))
	}
	// Pick a data symbol and verify each unit's switch phase matches its bit.
	rec := recs[3]
	if rec.Bits == nil {
		t.Fatal("data symbol carried no bits")
	}
	ov := p.Oversample
	symStartUnit := ltephy.SymbolStart(p, rec.Symbol) / ov
	w0 := symStartUnit + p.BW.CPLen(rec.Symbol%ltephy.SymbolsPerSlot) + (p.BW.FFTSize()-p.UsefulModulationUnits())/2
	for i, b := range rec.Bits {
		u := w0 + i
		s := u * ov // first sample of the unit
		if cmplx.Abs(ambient[s]) < 1e-6 {
			continue
		}
		w := out[s] / ambient[s]
		// Phase 0 (bit 1): first half-period is +; phase pi (bit 0): -.
		positive := real(w) > 0
		if positive != (b == 1) {
			t.Fatalf("unit %d: switch sign %v does not encode bit %d", i, positive, b)
		}
	}
}

func TestModulatorQueueAccounting(t *testing.T) {
	_, p := ambientSubframe(t, ltephy.BW1_4, 1)
	ambient, _ := ambientSubframe(t, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p})
	perSym := m.PerSymbolBits()
	m.QueueBits(make([]byte, 3*perSym+10))
	_, recs := m.ModulateSubframe(ambient, 1, false)
	dataSyms := 0
	for _, r := range recs {
		if r.Bits != nil && !r.IsPreamble {
			dataSyms++
		}
	}
	if dataSyms != 3 {
		t.Fatalf("modulated %d data symbols, want 3 (partial symbols wait)", dataSyms)
	}
	if m.QueuedBits() != 10 {
		t.Fatalf("queued remainder = %d, want 10", m.QueuedBits())
	}
	if m.SentBits() != 3*perSym {
		t.Fatalf("sent = %d, want %d", m.SentBits(), 3*perSym)
	}
}

func TestModulatorBurstPreambleFirst(t *testing.T) {
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 0)
	m := NewModulator(ModConfig{Params: p})
	m.QueueBits(make([]byte, 20*p.UsefulModulationUnits()))
	_, recs := m.ModulateSubframe(ambient, 0, true)
	if !recs[0].IsPreamble {
		t.Fatal("burst did not open with a preamble")
	}
	for _, r := range recs[1:] {
		if r.IsPreamble {
			t.Fatal("multiple preambles in one burst")
		}
	}
}

func TestModulatorTimingErrorShiftsWindow(t *testing.T) {
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 1)
	bits := make([]byte, 12*p.UsefulModulationUnits()) // all zeros -> phase pi
	a := NewModulator(ModConfig{Params: p})
	a.QueueBits(bits)
	outA, _ := a.ModulateSubframe(ambient, 1, false)
	b := NewModulator(ModConfig{Params: p, TimingErrorUnits: 4})
	b.QueueBits(append([]byte(nil), bits...))
	outB, _ := b.ModulateSubframe(ambient, 1, false)
	// The waveforms must differ (window moved) ...
	diff := 0
	for i := range outA {
		if outA[i] != outB[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("timing error had no effect")
	}
	// ... by exactly a 4-unit displacement of the phase pattern: outB at
	// sample s equals outA's pattern at s-4*ov (where both are in steady
	// data regions).
	ov := p.Oversample
	shift := 4 * ov
	mismatch := 0
	checked := 0
	start := ltephy.SymbolStart(p, 4)
	endS := ltephy.SymbolStart(p, 5)
	for s := start + shift; s < endS; s++ {
		if cmplx.Abs(ambient[s]) < 1e-6 || cmplx.Abs(ambient[s-shift]) < 1e-6 {
			continue
		}
		wA := outA[s-shift] / ambient[s-shift]
		wB := outB[s] / ambient[s]
		checked++
		if cmplx.Abs(wA-wB) > 1e-9 {
			mismatch++
		}
	}
	if checked == 0 || mismatch > 0 {
		t.Fatalf("shifted waveform mismatch: %d of %d samples", mismatch, checked)
	}
}

func TestSSBModeSingleSideband(t *testing.T) {
	ambient, p := ambientSubframe(t, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p, Mode: SSB})
	out, _ := m.ModulateSubframe(ambient, 1, false)
	n := p.BW.FFTSize() * p.Oversample
	start := ltephy.UsefulStart(p, 3)
	spec := dsp.FFT(append([]complex128(nil), out[start:start+n]...))
	k := p.BW.Subcarriers()
	nn := p.BW.FFTSize()
	var upper, lower float64
	for bnum, v := range spec {
		f := bnum
		if f > n/2 {
			f -= n
		}
		pw := real(v)*real(v) + imag(v)*imag(v)
		if f >= nn-k/2 && f <= nn+k/2 {
			upper += pw
		}
		if f >= -nn-k/2 && f <= -nn+k/2 {
			lower += pw
		}
	}
	if lower > 0.01*upper {
		t.Fatalf("SSB image rejection poor: lower %v vs upper %v", lower, upper)
	}
}

func TestNewModulatorRejectsOddOversample(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	p.Oversample = 3
	defer func() {
		if recover() == nil {
			t.Fatal("odd oversample accepted")
		}
	}()
	NewModulator(ModConfig{Params: p})
}

func BenchmarkModulateSubframe1_4MHz(b *testing.B) {
	ambient, p := ambientSubframe(b, ltephy.BW1_4, 1)
	m := NewModulator(ModConfig{Params: p})
	m.QueueBits(make([]byte, 100*12*p.UsefulModulationUnits()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ModulateSubframe(ambient, 1, false)
	}
}
