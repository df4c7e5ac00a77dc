// Package impair is a composable, seed-deterministic RF impairment pipeline:
// it wraps any complex-baseband sample stream with the non-idealities that
// dominate real ambient-backscatter links beyond path loss, fading and AWGN —
// sampling-frequency offset (resampling drift), time-varying carrier-frequency
// offset with oscillator phase noise, impulsive and bursty co-channel
// interference, ADC clipping/quantization, and tag-side timing jitter.
//
// Each impairment is an independent Stage with its own on/off switch and its
// own random stream derived from (Config.Seed, stage identity) — never from a
// shared generator — so enabling or disabling one stage cannot change another
// stage's randomness. A run with the same Config is therefore
// byte-reproducible at any stage combination, which is what lets the
// resilience sweep (experiments "R1", `lscatter-bench -id R1`) attribute a
// BER change to exactly one knob.
//
// The models follow the impairments reported as dominant for LTE backscatter
// by Ruttik et al. ("Ambient backscatter communications using LTE cell
// specific reference signals") and Liao et al. ("Coded Backscattering
// Communication with LTE Pilots as Ambient Signal"); see docs/RESILIENCE.md
// for the grounding of each stage.
package impair

import (
	"fmt"
	"math"
	"strings"

	"lscatter/internal/rng"
)

// StageKind identifies one impairment stage.
type StageKind int

const (
	// Jitter is tag-side timing jitter: a per-block Gaussian re-timing of
	// the stream, modeling the residual error of the envelope-detector
	// synchronization circuit.
	Jitter StageKind = iota
	// SFO is sampling-frequency offset: linear-interpolation resampling at
	// (1 + ppm*1e-6) of the nominal rate, modeling the drift between the
	// eNodeB DAC clock and the UE ADC clock.
	SFO
	// CFO is time-varying carrier-frequency offset plus Wiener phase noise,
	// modeling the residual LO mismatch and its temperature drift.
	CFO
	// Interference is impulsive plus bursty co-channel interference.
	Interference
	// ADC is front-end clipping and uniform quantization.
	ADC

	numStageKinds = int(ADC) + 1
)

// String names the stage kind.
func (k StageKind) String() string {
	switch k {
	case Jitter:
		return "jitter"
	case SFO:
		return "sfo"
	case CFO:
		return "cfo"
	case Interference:
		return "interference"
	case ADC:
		return "adc"
	}
	return fmt.Sprintf("impair.StageKind(%d)", int(k))
}

// stageSalt decorrelates the per-stage RNG streams: each stage seeds its
// generator with Config.Seed XOR a fixed golden constant, so the stream a
// stage draws depends only on (seed, kind) — not on which other stages exist.
func stageSalt(k StageKind) uint64 {
	salts := [...]uint64{
		Jitter:       0x9e3779b97f4a7c15,
		SFO:          0xbf58476d1ce4e5b9,
		CFO:          0x94d049bb133111eb,
		Interference: 0xd1342543de82ef95,
		ADC:          0x2545f4914f6cdd1d,
	}
	return salts[k]
}

// DefaultOrder is the physical receive-chain order: the tag's timing jitter
// happens at the transmitter, sampling drift and LO offset corrupt the
// waveform in flight/at the mixer, interference adds in the air, and the ADC
// digitizes last.
var DefaultOrder = []StageKind{Jitter, SFO, CFO, Interference, ADC}

// SFOConfig parameterizes the sampling-frequency-offset stage.
type SFOConfig struct {
	// Enabled switches the stage on.
	Enabled bool
	// PPM is the clock offset in parts per million (UE sampling fast for
	// positive values). Consumer TCXOs sit at ±(0.5..25) ppm.
	PPM float64
}

// CFOConfig parameterizes the carrier-frequency-offset stage.
type CFOConfig struct {
	// Enabled switches the stage on.
	Enabled bool
	// OffsetHz is the initial LO offset.
	OffsetHz float64
	// DriftHzPerSec makes the offset ramp over time (thermal drift).
	DriftHzPerSec float64
	// PhaseNoiseRMSRad is the per-sample standard deviation of the Wiener
	// phase-noise random walk (radians). 0 disables phase noise.
	PhaseNoiseRMSRad float64
}

// InterferenceConfig parameterizes the co-channel interference stage. Powers
// are set relative to the signal power of each processed block, so one config
// expresses the same signal-to-interference ratio at every link distance.
type InterferenceConfig struct {
	// Enabled switches the stage on.
	Enabled bool
	// ImpulsesPerSec is the mean rate of single-sample impulses (ignition
	// noise, switching transients).
	ImpulsesPerSec float64
	// ImpulseSIRdB is the signal-to-impulse-peak power ratio in dB; lower
	// means stronger impulses. The per-impulse magnitude has an exponential
	// heavy tail around this mean.
	ImpulseSIRdB float64
	// BurstsPerSec is the mean arrival rate of interference bursts
	// (co-channel uplink, neighboring-cell activity).
	BurstsPerSec float64
	// BurstDurationSec is the mean burst length; actual lengths are
	// exponential.
	BurstDurationSec float64
	// BurstSIRdB is the signal-to-burst power ratio in dB during a burst.
	BurstSIRdB float64
}

// ADCConfig parameterizes the clipping/quantization stage. Zero values select
// the defaults (12-bit, 12 dB clip backoff), following the repository's
// zero-value-means-default convention.
type ADCConfig struct {
	// Enabled switches the stage on.
	Enabled bool
	// Bits is the quantizer resolution per I/Q dimension (default 12).
	Bits int
	// ClipBackoffDB places full scale this many dB above the block RMS
	// (default 12). Smaller backoff clips harder.
	ClipBackoffDB float64
}

// JitterConfig parameterizes the timing-jitter stage: each processed block is
// re-timed by an integer shift drawn from N(0, RMSSamples), modeling the
// subframe-to-subframe wander of the tag's envelope-detector timing estimate.
// The same RMS (expressed in basic-timing units) drives the tag-side
// modulator jitter when the pipeline is wired into the exact link chain.
type JitterConfig struct {
	// Enabled switches the stage on.
	Enabled bool
	// RMSSamples is the standard deviation of the per-block shift in
	// samples. Shifts are clamped to ±4 RMS.
	RMSSamples float64
}

// Config assembles the pipeline. SampleRate must be set by the owner (it
// converts the Hz- and per-second-denominated knobs); Seed drives every
// stage's derived random stream.
type Config struct {
	// Seed is the master seed; each stage forks an independent stream from
	// it via a fixed per-stage salt.
	Seed uint64
	// SampleRate of the wrapped stream in Hz. Required when any enabled
	// stage uses time-denominated parameters.
	SampleRate float64

	Jitter       JitterConfig
	SFO          SFOConfig
	CFO          CFOConfig
	Interference InterferenceConfig
	ADC          ADCConfig
}

// Active reports whether any stage is enabled.
func (c Config) Active() bool {
	return c.Jitter.Enabled || c.SFO.Enabled || c.CFO.Enabled ||
		c.Interference.Enabled || c.ADC.Enabled
}

// enabled reports whether the given stage kind is switched on.
func (c Config) enabled(k StageKind) bool {
	switch k {
	case Jitter:
		return c.Jitter.Enabled
	case SFO:
		return c.SFO.Enabled
	case CFO:
		return c.CFO.Enabled
	case Interference:
		return c.Interference.Enabled
	case ADC:
		return c.ADC.Enabled
	}
	return false
}

// Stage is one impairment applied to a sample stream. Stages are stateful
// across Process calls — consecutive blocks form one continuous stream — and
// must not modify their input slice.
type Stage interface {
	// Kind identifies the stage.
	Kind() StageKind
	// Process consumes the next block and returns the impaired block of the
	// same length in a fresh slice.
	Process(x []complex128) []complex128
	// Reset returns the stage to its initial state (stream position zero,
	// RNG stream rewound).
	Reset()
}

// Pipeline chains the enabled stages of a Config in order.
type Pipeline struct {
	stages []Stage
}

// New builds a pipeline with every enabled stage of cfg, in DefaultOrder. It
// panics on invalid configurations: a time-denominated stage enabled without
// a sample rate.
func New(cfg Config) *Pipeline {
	return NewFor(cfg, Jitter, SFO, CFO, Interference, ADC)
}

// NewFor builds a pipeline restricted to the given kinds: a stage runs only
// when it is both enabled in cfg and listed in kinds, and the stages run in
// DefaultOrder whatever the order of kinds. The exact link chain uses this to
// apply the jitter impairment at the tag while the remaining stages wrap the
// receiver input.
func NewFor(cfg Config, kinds ...StageKind) *Pipeline {
	allow := make([]bool, numStageKinds)
	for _, k := range kinds {
		checkKind(k)
		allow[k] = true
	}
	p := &Pipeline{}
	for _, k := range DefaultOrder {
		if !allow[k] || !cfg.enabled(k) {
			continue
		}
		p.stages = append(p.stages, newStage(k, cfg))
	}
	return p
}

func checkKind(k StageKind) {
	if k < 0 || int(k) >= numStageKinds {
		panic(fmt.Sprintf("impair: unknown stage kind %d", int(k)))
	}
}

// newStage constructs one stage with its derived RNG stream.
func newStage(k StageKind, cfg Config) Stage {
	seed := cfg.Seed ^ stageSalt(k)
	switch k {
	case Jitter:
		return newJitterStage(cfg.Jitter, seed)
	case SFO:
		return newSFOStage(cfg.SFO)
	case CFO:
		return newCFOStage(cfg.CFO, cfg.SampleRate, seed)
	case Interference:
		return newInterferenceStage(cfg.Interference, cfg.SampleRate, seed)
	case ADC:
		return newADCStage(cfg.ADC)
	}
	panic("impair: unreachable")
}

// Active reports whether the pipeline holds at least one stage.
func (p *Pipeline) Active() bool { return p != nil && len(p.stages) > 0 }

// Stages lists the active stage names in processing order.
func (p *Pipeline) Stages() []string {
	if p == nil {
		return nil
	}
	out := make([]string, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.Kind().String()
	}
	return out
}

// Describe renders the active stage chain, e.g. "sfo→cfo→adc" ("clean" when
// empty).
func (p *Pipeline) Describe() string {
	names := p.Stages()
	if len(names) == 0 {
		return "clean"
	}
	return strings.Join(names, "→")
}

// Process pushes one block through every stage in order and returns the
// impaired block. With no active stages the input is returned unchanged (the
// same slice: the clean path allocates and copies nothing). Blocks must be
// fed in stream order; stages keep state across calls.
func (p *Pipeline) Process(x []complex128) []complex128 {
	if p == nil {
		return x
	}
	for _, s := range p.stages {
		x = s.Process(x)
	}
	return x
}

// Reset rewinds every stage to stream position zero with a fresh copy of its
// derived RNG stream, so a reset pipeline reproduces its first run exactly.
func (p *Pipeline) Reset() {
	if p == nil {
		return
	}
	for _, s := range p.stages {
		s.Reset()
	}
}

// newStageRNG builds the RNG for a stage seed. Kept as a helper so stages
// can rebuild an identical stream on Reset.
func newStageRNG(seed uint64) *rng.Source { return rng.New(seed) }

// TimingJitter exposes the Jitter stage's draw sequence as plain integers,
// for chains that apply the tag's timing wander at the modulator (in
// basic-timing units) instead of re-timing a sample stream. It consumes the
// exact stream the jitterStage would — same seed derivation, same draw and
// clamp per block — so a tag-side and a stream-side application of the same
// Config are sample-for-sample comparable.
type TimingJitter struct {
	cfg  JitterConfig
	seed uint64
	r    *rng.Source
	max  int
}

// NewTimingJitter builds the draw stream for cfg's Jitter settings. It
// returns nil when the stage is disabled; Next on a nil TimingJitter
// returns 0, so callers need no enabled check.
func NewTimingJitter(cfg Config) *TimingJitter {
	if !cfg.Jitter.Enabled {
		return nil
	}
	if cfg.Jitter.RMSSamples < 0 {
		panic(fmt.Sprintf("impair: jitter RMS %v must be >= 0", cfg.Jitter.RMSSamples))
	}
	j := &TimingJitter{cfg: cfg.Jitter, seed: cfg.Seed ^ stageSalt(Jitter)}
	j.Reset()
	return j
}

// Next draws the timing error for the next block: round(N(0, RMS)) clamped
// to ±4 RMS, in the caller's unit (samples or basic-timing units).
func (j *TimingJitter) Next() int {
	if j == nil {
		return 0
	}
	shift := int(math.Round(j.r.NormFloat64() * j.cfg.RMSSamples))
	if shift > j.max {
		shift = j.max
	}
	if shift < -j.max {
		shift = -j.max
	}
	return shift
}

// Reset rewinds the draw stream to its start.
func (j *TimingJitter) Reset() {
	if j == nil {
		return
	}
	j.r = newStageRNG(j.seed)
	j.max = int(math.Ceil(4 * j.cfg.RMSSamples))
}
