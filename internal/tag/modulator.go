package tag

import (
	"fmt"
	"math"

	"lscatter/internal/bits"
	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
)

// Mode selects the switch waveform topology.
type Mode int

const (
	// DSB is plain two-level square-wave switching: both sidebands at
	// fc ± 1/Ts are produced; the receiver uses the upper one.
	DSB Mode = iota
	// SSB is quadrature multi-phase switching (HitchHike-style image
	// rejection): only the upper sideband is produced.
	SSB
)

// PreambleLen is the number of bits in the per-burst preamble: exactly one
// symbol's worth of useful modulation units at 20 MHz. At narrower
// bandwidths the preamble is truncated to the per-symbol bit count.
const PreambleLen = 1200

// Preamble returns the pre-defined preamble bit pattern for n bits: a fixed
// PRBS-15 segment known to both tag and UE (§3.3.2). Equivalent to
// PreambleFor(0, n).
func Preamble(n int) []byte { return PreambleFor(0, n) }

// PreambleFor returns the preamble of the tag with the given ID. Distinct
// IDs select distinct PRBS segments with low cross-correlation, so a
// receiver can tell which of several tags opened a burst (the multi-tag
// extension of §6: tags share the excitation by TDMA and identify
// themselves by preamble).
func PreambleFor(id int, n int) []byte {
	seed := uint16(0x35a1) ^ uint16(id*0x2f1d+id<<7)
	return bits.PRBS(seed, n)
}

// ModConfig parameterizes the modulator.
type ModConfig struct {
	// Params must match the ambient waveform.
	Params ltephy.Params
	// Mode selects DSB or SSB switching.
	Mode Mode
	// ReflectionLossDB is the tag's reflection efficiency (antenna capture,
	// switch insertion loss, harmonic split). Default 6 dB.
	ReflectionLossDB float64
	// TimingErrorUnits is the tag's residual symbol-timing error after
	// calibrated synchronization, in basic-timing units (may be negative).
	// The §3.2.3 slack absorbs |error| up to ~(useful-CP-window)/2 units.
	TimingErrorUnits int
	// SampleOffset is the sub-unit misalignment in oversampled samples
	// [0, Oversample): it produces the common phase offset φ of §3.3.1.
	SampleOffset int
	// ID identifies this tag in multi-tag deployments; it selects the
	// preamble pattern (PreambleFor). Zero is the single-tag default.
	ID int
}

// SymbolRecord logs what the tag embedded into one OFDM symbol.
type SymbolRecord struct {
	// Symbol is the OFDM symbol index within the subframe (0..13).
	Symbol int
	// Bits are the embedded bits (nil for skipped symbols).
	Bits []byte
	// IsPreamble marks the known preamble symbol opening a burst.
	IsPreamble bool
}

// Modulator applies the LScatter switch waveform to ambient samples. It is
// stateful across subframes: a new burst (preamble + data) starts at each
// half-frame boundary, i.e. right after each PSS the sync circuit reports.
type Modulator struct {
	cfg        ModConfig
	perSymBits int
	pending    []byte // bits waiting to be sent
	sent       int    // total data bits modulated
}

// NewModulator builds a modulator. It panics if the oversampling factor is
// odd (the two-level square wave needs an integer half-period).
func NewModulator(cfg ModConfig) *Modulator {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	if cfg.Params.Oversample%2 != 0 {
		panic("tag: oversampling factor must be even for square-wave switching")
	}
	if cfg.ReflectionLossDB == 0 {
		cfg.ReflectionLossDB = 6
	}
	if cfg.SampleOffset < 0 || cfg.SampleOffset >= cfg.Params.Oversample {
		panic(fmt.Sprintf("tag: sample offset %d out of [0,%d)", cfg.SampleOffset, cfg.Params.Oversample))
	}
	return &Modulator{
		cfg:        cfg,
		perSymBits: cfg.Params.UsefulModulationUnits(),
	}
}

// PerSymbolBits returns the data bits carried per modulated OFDM symbol.
func (m *Modulator) PerSymbolBits() int { return m.perSymBits }

// TimingError returns the current residual timing error in basic-timing
// units.
func (m *Modulator) TimingError() int { return m.cfg.TimingErrorUnits }

// SetTimingError updates the residual symbol-timing error applied to
// subsequent subframes. The fault-injection chain calls this once per
// subframe to model the wander of the sync circuit's timing estimate
// (impair.JitterConfig); a fixed ModConfig.TimingErrorUnits models only the
// static calibration residual.
func (m *Modulator) SetTimingError(units int) { m.cfg.TimingErrorUnits = units }

// QueueBits appends payload bits to the transmit queue.
func (m *Modulator) QueueBits(b []byte) { m.pending = append(m.pending, b...) }

// QueuedBits returns the number of bits waiting.
func (m *Modulator) QueuedBits() int { return len(m.pending) }

// SentBits returns the total data bits modulated so far.
func (m *Modulator) SentBits() int { return m.sent }

// parkLossDB models the parked antenna's reduced radar cross-section
// relative to the switching state.
const parkLossDB = 10

// ParkedSubframe models a tag that is not scheduled in this TDMA slot: the
// switch is parked (no square-wave toggling), so the reflection is a weak
// static in-band echo — indistinguishable from environmental clutter and,
// crucially, absent from the shifted backscatter band where another tag may
// be transmitting.
func (m *Modulator) ParkedSubframe(ambient []complex128) []complex128 {
	out := make([]complex128, len(ambient))
	amp := complex(math.Sqrt(dsp.FromDB(-m.cfg.ReflectionLossDB-parkLossDB)), 0)
	for i, v := range ambient {
		out[i] = v * amp
	}
	return out
}

// DataSymbols lists the OFDM symbols of a subframe the tag modulates: the
// PDSCH region (symbols 2..13), excluding PSS/SSS symbols in subframes 0/5
// so the critical sync information passes through unmodified (§3.1). The UE
// demodulator uses the same schedule.
func DataSymbols(subframe int) []int {
	var out []int
	for l := 2; l < ltephy.SymbolsPerSubframe; l++ {
		if (subframe == 0 || subframe == 5) &&
			(l == ltephy.PSSSymbolIndex || l == ltephy.SSSSymbolIndex) {
			continue
		}
		out = append(out, l)
	}
	return out
}

// windowStartUnit returns the first basic-timing unit (within the symbol,
// CP included) of the useful-modulation window: the window is centered in
// the useful part so the §3.2.3 slack is split evenly on both sides.
func windowStartUnit(p ltephy.Params, l int) int {
	cp := p.BW.CPLen(l % ltephy.SymbolsPerSlot)
	useful := p.BW.FFTSize()
	return cp + (useful-p.UsefulModulationUnits())/2
}

// modPlan is one subframe's modulation schedule: the per-unit switch phase,
// the symbol records, and the timing shift in effect at planning time.
type modPlan struct {
	// phase is the per-unit switch phase in the tag's local clock:
	// false = 0, true = pi.
	phase []bool
	// records lists what each modulated symbol carried.
	records []SymbolRecord
	// shift is the waveform shift in oversampled samples
	// (TimingErrorUnits*Oversample + SampleOffset).
	shift int
}

// planSubframe builds the modulation schedule for one subframe, consuming
// payload bits from the queue. startBurst begins a new burst: the first
// modulated symbol carries the preamble.
func (m *Modulator) planSubframe(subframe int, startBurst bool) modPlan {
	p := m.cfg.Params
	ov := p.Oversample
	// Build the per-unit phase schedule for the whole subframe in the tag's
	// local clock. true switch-phase per unit: false=0, true=pi.
	unitsPerSubframe := p.BW.SamplesPerSubframe()
	phase := make([]bool, unitsPerSubframe)
	var records []SymbolRecord
	preambleNext := startBurst
	for _, l := range DataSymbols(subframe) {
		symStartUnit := ltephy.SymbolStart(p, l) / ov
		w0 := symStartUnit + windowStartUnit(p, l)
		var symBits []byte
		isPre := false
		if preambleNext {
			symBits = PreambleFor(m.cfg.ID, m.perSymBits)
			isPre = true
			preambleNext = false
		} else if len(m.pending) >= m.perSymBits {
			symBits = m.pending[:m.perSymBits]
			m.pending = m.pending[m.perSymBits:]
			m.sent += m.perSymBits
		} else {
			// Not enough payload: leave the symbol as plain square waves
			// (all bits '1' = phase 0, per §3.2.3).
			records = append(records, SymbolRecord{Symbol: l})
			continue
		}
		for i, b := range symBits {
			u := w0 + i
			if u >= 0 && u < unitsPerSubframe {
				// Paper convention: data '1' -> phase 0, '0' -> phase pi.
				phase[u] = b == 0
			}
		}
		records = append(records, SymbolRecord{Symbol: l, Bits: symBits, IsPreamble: isPre})
	}
	return modPlan{
		phase:   phase,
		records: records,
		shift:   m.cfg.TimingErrorUnits*ov + m.cfg.SampleOffset,
	}
}

// applyPlan applies the switch waveform of a planned subframe to one
// subframe of ambient samples.
func (m *Modulator) applyPlan(ambient []complex128, pl modPlan) []complex128 {
	p := m.cfg.Params
	ov := p.Oversample
	unitsPerSubframe := p.BW.SamplesPerSubframe()
	out := make([]complex128, len(ambient))
	ampA := complex(math.Sqrt(dsp.FromDB(-m.cfg.ReflectionLossDB)), 0)
	shift := pl.shift
	wave := switchWave(p.Oversample, m.cfg.Mode)
	for s := range ambient {
		local := s - shift
		var w complex128
		if local < 0 {
			// Before the tag's clock started: plain phase-0 wave.
			w = wave[((local%ov)+ov)%ov][0]
		} else {
			u := local / ov
			mIdx := local % ov
			ph := 0
			if u < unitsPerSubframe && pl.phase[u] {
				ph = 1
			}
			w = wave[mIdx][ph]
		}
		out[s] = ambient[s] * w * ampA
	}
	return out
}

// ModulateSubframe reflects one subframe of ambient samples. ambient must be
// aligned to the true subframe boundary and hold exactly one subframe. The
// tag's own timing error is applied internally. startBurst begins a new
// burst: the first modulated symbol carries the preamble. The returned
// records list what each symbol carried.
func (m *Modulator) ModulateSubframe(ambient []complex128, subframe int, startBurst bool) ([]complex128, []SymbolRecord) {
	p := m.cfg.Params
	need := p.Oversample * p.BW.SamplesPerSubframe()
	if len(ambient) != need {
		panic(fmt.Sprintf("tag: subframe needs %d samples, got %d", need, len(ambient)))
	}
	pl := m.planSubframe(subframe, startBurst)
	return m.applyPlan(ambient, pl), pl.records
}

// switchWave precomputes the switch waveform over one unit period:
// wave[m][phase] for phase 0 and pi.
func switchWave(ov int, mode Mode) [][2]complex128 {
	w := make([][2]complex128, ov)
	for m := 0; m < ov; m++ {
		switch mode {
		case DSB:
			v := complex(1, 0)
			if m >= ov/2 {
				v = -1
			}
			w[m][0] = v
			w[m][1] = -v
		case SSB:
			// Quadrature multi-phase switching: e^{j 2 pi m / ov}.
			a := 2 * math.Pi * float64(m) / float64(ov)
			w[m][0] = complex(math.Cos(a), math.Sin(a))
			w[m][1] = -w[m][0]
		}
	}
	return w
}
