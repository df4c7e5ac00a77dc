package impair

import (
	"math"
	"math/cmplx"
	"testing"

	"lscatter/internal/dsp"
	"lscatter/internal/rng"
)

// randomBlocks draws a stream of nBlocks blocks of blockLen complex samples.
func randomBlocks(seed uint64, nBlocks, blockLen int) [][]complex128 {
	r := rng.New(seed)
	out := make([][]complex128, nBlocks)
	for b := range out {
		blk := make([]complex128, blockLen)
		for i := range blk {
			blk[i] = r.Complex(1 / math.Sqrt2)
		}
		out[b] = blk
	}
	return out
}

// severe returns a configuration with every stage enabled at aggressive
// settings, used by the reproducibility and isolation properties.
func severe(seed uint64) Config {
	return Config{
		Seed:       seed,
		SampleRate: 1.92e6,
		Jitter:     JitterConfig{Enabled: true, RMSSamples: 3},
		SFO:        SFOConfig{Enabled: true, PPM: 40},
		CFO:        CFOConfig{Enabled: true, OffsetHz: 900, DriftHzPerSec: 300, PhaseNoiseRMSRad: 2e-3},
		Interference: InterferenceConfig{
			Enabled: true, ImpulsesPerSec: 2000, ImpulseSIRdB: -6,
			BurstsPerSec: 40, BurstDurationSec: 1e-3, BurstSIRdB: 0,
		},
		ADC: ADCConfig{Enabled: true, Bits: 6, ClipBackoffDB: 6},
	}
}

func processStream(p *Pipeline, blocks [][]complex128) [][]complex128 {
	out := make([][]complex128, len(blocks))
	for i, b := range blocks {
		out[i] = p.Process(b)
	}
	return out
}

func equalStreams(a, b [][]complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSameSeedReproducible: the determinism contract. Two pipelines built
// from the same Config produce bit-identical streams, across multiple seeds
// and blocks, at the full severe stage combination.
func TestSameSeedReproducible(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		blocks := randomBlocks(seed*31, 4, 2048)
		a := processStream(New(severe(seed)), blocks)
		b := processStream(New(severe(seed)), blocks)
		if !equalStreams(a, b) {
			t.Fatalf("seed %d: same-config pipelines diverged", seed)
		}
	}
}

// TestStageStreamsIndependent: disabling one stage must not change the
// randomness another stage draws. The interference pattern added on top of
// the input must be identical whether or not the jitter stage runs before it
// is disabled... concretely: run interference alone vs. interference with CFO
// at zero magnitude (identity but present) — the added noise is the same.
func TestStageStreamsIndependent(t *testing.T) {
	blocks := randomBlocks(5, 3, 2048)
	base := Config{
		Seed:       11,
		SampleRate: 1.92e6,
		Interference: InterferenceConfig{
			Enabled: true, ImpulsesPerSec: 5000, ImpulseSIRdB: -3,
			BurstsPerSec: 100, BurstDurationSec: 5e-4, BurstSIRdB: 0,
		},
	}
	withIdentityCFO := base
	withIdentityCFO.CFO = CFOConfig{Enabled: true} // zero magnitude: exact identity
	a := processStream(New(base), blocks)
	b := processStream(New(withIdentityCFO), blocks)
	if !equalStreams(a, b) {
		t.Fatal("enabling a zero-magnitude stage changed another stage's random stream")
	}
}

// TestZeroMagnitudeStagesAreExactIdentities: every randomized/parametric
// stage with zero-magnitude settings returns the input bit-for-bit.
func TestZeroMagnitudeStagesAreExactIdentities(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"jitter", Config{Seed: 3, Jitter: JitterConfig{Enabled: true, RMSSamples: 0}}},
		{"sfo", Config{Seed: 3, SFO: SFOConfig{Enabled: true, PPM: 0}}},
		{"cfo", Config{Seed: 3, SampleRate: 1e6, CFO: CFOConfig{Enabled: true}}},
		{"interference", Config{Seed: 3, SampleRate: 1e6, Interference: InterferenceConfig{Enabled: true}}},
	}
	blocks := randomBlocks(17, 3, 1024)
	for _, tc := range cases {
		p := New(tc.cfg)
		if !p.Active() {
			t.Fatalf("%s: stage not active", tc.name)
		}
		for bi, blk := range blocks {
			in := append([]complex128(nil), blk...)
			out := p.Process(blk)
			for i := range in {
				if out[i] != in[i] {
					t.Fatalf("%s: block %d sample %d changed: %v -> %v", tc.name, bi, i, in[i], out[i])
				}
			}
			// The input slice itself must stay untouched.
			for i := range in {
				if blk[i] != in[i] {
					t.Fatalf("%s: stage mutated its input", tc.name)
				}
			}
		}
	}
}

// TestPurePhaseStageConservesPower: the CFO stage only rotates, so per-sample
// magnitude — and hence block power — is conserved within floating-point
// tolerance at any offset/drift/phase-noise setting.
func TestPurePhaseStageConservesPower(t *testing.T) {
	cfg := Config{
		Seed:       21,
		SampleRate: 1.92e6,
		CFO:        CFOConfig{Enabled: true, OffsetHz: 1234.5, DriftHzPerSec: 777, PhaseNoiseRMSRad: 5e-3},
	}
	p := New(cfg)
	for _, blk := range randomBlocks(23, 4, 4096) {
		in := dsp.Power(blk)
		out := p.Process(blk)
		got := dsp.Power(out)
		if rel := math.Abs(got-in) / in; rel > 1e-12 {
			t.Fatalf("CFO stage changed power by %.3e relative", rel)
		}
		for i := range blk {
			if d := math.Abs(cmplx.Abs(out[i]) - cmplx.Abs(blk[i])); d > 1e-12 {
				t.Fatalf("sample %d magnitude changed by %v", i, d)
			}
		}
	}
}

// TestSFOConservesPowerApproximately: linear-interpolation resampling at a
// few ppm moves samples by fractions of a sample period; on a band-limited
// (oversampled) signal — which is what the chain feeds it — the block power
// can only change marginally. White noise would be the pathological case:
// adjacent samples are independent, so mid-sample interpolation averages
// power away by design.
func TestSFOConservesPowerApproximately(t *testing.T) {
	cfg := Config{Seed: 9, SFO: SFOConfig{Enabled: true, PPM: 20}}
	p := New(cfg)
	const n = 8192
	r := rng.New(29)
	for b := 0; b < 4; b++ {
		// Multitone occupying the lowest 1/16 of the band (16x oversampled).
		blk := make([]complex128, n)
		for tone := 0; tone < 16; tone++ {
			f := float64(r.Intn(n / 16))
			ph0 := 2 * math.Pi * r.Float64()
			for i := range blk {
				ph := 2*math.Pi*f*float64(i)/n + ph0
				blk[i] += complex(math.Cos(ph), math.Sin(ph))
			}
		}
		in := dsp.Power(blk)
		out := p.Process(blk)
		got := dsp.Power(out)
		if rel := math.Abs(got-in) / in; rel > 0.05 {
			t.Fatalf("SFO at 20 ppm changed power by %.3f relative", rel)
		}
	}
}

// TestResetRewindsExactly: Reset must reproduce the first run bit-for-bit.
func TestResetRewindsExactly(t *testing.T) {
	blocks := randomBlocks(41, 3, 2048)
	p := New(severe(13))
	a := processStream(p, blocks)
	p.Reset()
	b := processStream(p, blocks)
	if !equalStreams(a, b) {
		t.Fatal("Reset did not rewind the pipeline to its initial state")
	}
}

// TestInactivePipelinePassesThrough: with no stages enabled, Process returns
// the input slice itself — zero cost on the clean path.
func TestInactivePipelinePassesThrough(t *testing.T) {
	p := New(Config{Seed: 1})
	if p.Active() {
		t.Fatal("empty config produced an active pipeline")
	}
	x := make([]complex128, 64)
	if out := p.Process(x); &out[0] != &x[0] {
		t.Fatal("inactive pipeline did not pass the slice through")
	}
	var nilP *Pipeline
	if out := nilP.Process(x); &out[0] != &x[0] {
		t.Fatal("nil pipeline did not pass the slice through")
	}
	if nilP.Active() {
		t.Fatal("nil pipeline reports active")
	}
	if got := nilP.Describe(); got != "clean" {
		t.Fatalf("nil pipeline describes as %q", got)
	}
}

// TestADCQuantizesAndClips: a strong outlier is clipped to full scale and
// ordinary samples land on quantizer steps.
func TestADCQuantizesAndClips(t *testing.T) {
	cfg := Config{Seed: 1, ADC: ADCConfig{Enabled: true, Bits: 4, ClipBackoffDB: 6}}
	p := New(cfg)
	blk := make([]complex128, 1024)
	r := rng.New(77)
	for i := range blk {
		blk[i] = r.Complex(1 / math.Sqrt2)
	}
	blk[100] = complex(1e3, -1e3) // outlier far beyond full scale
	out := p.Process(blk)
	rms := math.Sqrt(dsp.Power(blk))
	full := rms * math.Pow(10, 6.0/20)
	if real(out[100]) > full+1e-9 || imag(out[100]) < -full-1e-9 {
		t.Fatalf("outlier not clipped: %v (full scale %v)", out[100], full)
	}
	// 4-bit quantizer: at most 15 distinct magnitudes per dimension.
	seen := map[float64]bool{}
	for _, v := range out {
		seen[math.Abs(real(v))] = true
		seen[math.Abs(imag(v))] = true
	}
	if len(seen) > 8+1 { // 2^(4-1)-1 levels + zero
		t.Fatalf("4-bit ADC produced %d distinct magnitudes", len(seen))
	}
}

// TestJitterShiftsStream: with a large RMS, at least one block comes back
// time-shifted relative to the input.
func TestJitterShiftsStream(t *testing.T) {
	cfg := Config{Seed: 31, Jitter: JitterConfig{Enabled: true, RMSSamples: 4}}
	p := New(cfg)
	blocks := randomBlocks(51, 6, 1024)
	shifted := false
	for _, blk := range blocks {
		out := p.Process(blk)
		for i := range blk {
			if out[i] != blk[i] {
				shifted = true
				break
			}
		}
	}
	if !shifted {
		t.Fatal("jitter with RMS 4 samples never re-timed a block")
	}
}

// TestCFOShiftsSpectrum: a pure tone through the CFO stage moves by the
// configured offset.
func TestCFOShiftsSpectrum(t *testing.T) {
	const n = 4096
	const fs = 1.92e6
	const binHz = fs / n
	cfg := Config{Seed: 61, SampleRate: fs, CFO: CFOConfig{Enabled: true, OffsetHz: 32 * binHz}}
	p := New(cfg)
	tone := make([]complex128, n)
	for i := range tone {
		ph := 2 * math.Pi * 100 * float64(i) / n
		tone[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	out := p.Process(tone)
	spec := dsp.FFT(out)
	peak, _ := dsp.MaxAbsIndex(spec)
	if peak != 132 {
		t.Fatalf("tone at bin 100 with +32-bin CFO landed on bin %d, want 132", peak)
	}
}

// TestInterferenceAddsConfiguredPower: long-run added power approximates the
// configured burst SIR and duty cycle.
func TestInterferenceAddsConfiguredPower(t *testing.T) {
	const fs = 1e6
	cfg := Config{
		Seed:       71,
		SampleRate: fs,
		Interference: InterferenceConfig{
			Enabled:      true,
			BurstsPerSec: 50, BurstDurationSec: 2e-3, BurstSIRdB: 0,
		},
	}
	// Duty cycle 50*2e-3 = 0.1; burst power == signal power, so the mean
	// added power is ~0.1x the signal power.
	p := New(cfg)
	var addedE, sigE float64
	for _, blk := range randomBlocks(73, 40, 8192) {
		out := p.Process(blk)
		for i := range blk {
			d := out[i] - blk[i]
			addedE += real(d)*real(d) + imag(d)*imag(d)
			sigE += real(blk[i])*real(blk[i]) + imag(blk[i])*imag(blk[i])
		}
	}
	ratio := addedE / sigE
	if ratio < 0.03 || ratio > 0.3 {
		t.Fatalf("burst interference duty*power ratio %.3f outside [0.03, 0.3]", ratio)
	}
}

// TestUnknownOrderKindPanics guards NewFor's kind validation.
func TestUnknownOrderKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid stage kind did not panic")
		}
	}()
	NewFor(Config{Seed: 1}, CFO, StageKind(99))
}

// TestDescribeNamesStages checks the chain rendering used by the binaries.
func TestDescribeNamesStages(t *testing.T) {
	cfg := Config{
		Seed:       1,
		SampleRate: 1e6,
		SFO:        SFOConfig{Enabled: true, PPM: 1},
		ADC:        ADCConfig{Enabled: true},
	}
	if got := New(cfg).Describe(); got != "sfo→adc" {
		t.Fatalf("Describe() = %q, want sfo→adc", got)
	}
}
