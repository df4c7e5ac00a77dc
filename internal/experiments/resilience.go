package experiments

import (
	"fmt"

	"lscatter/internal/arq"
	"lscatter/internal/core"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
)

func init() {
	register("R1", ResilienceSweep)
}

// ImpairmentLevel is one rung of the resilience ladder: a named impairment
// configuration plus the matching link-layer burst-loss channel.
type ImpairmentLevel struct {
	// Name labels the level in tables and flags.
	Name string
	// Impair is the PHY fault-injection config (Seed/SampleRate filled in by
	// the consumer).
	Impair impair.Config
	// GE is the link-layer burst-loss channel the level maps to for the ARQ
	// columns.
	GE arq.GEConfig
}

// ImpairmentLevels is the canonical off/mild/moderate/severe ladder used by
// the R1 sweep (`lscatter-bench -id R1`). The mild rung is a healthy
// commercial deployment (TCXO-grade clocks, occasional co-channel activity);
// severe approaches the worst conditions the paper's §4.4 robustness
// discussion contemplates.
func ImpairmentLevels() []ImpairmentLevel {
	return []ImpairmentLevel{
		{
			Name:   "off",
			Impair: impair.Config{},
			GE:     arq.GEConfig{PBadToGood: 1, DeliverGood: 1, DeliverBad: 1},
		},
		{
			Name: "mild",
			Impair: impair.Config{
				CFO:    impair.CFOConfig{Enabled: true, OffsetHz: 200, DriftHzPerSec: 50, PhaseNoiseRMSRad: 5e-5},
				SFO:    impair.SFOConfig{Enabled: true, PPM: 0.5},
				ADC:    impair.ADCConfig{Enabled: true, Bits: 12},
				Jitter: impair.JitterConfig{Enabled: true, RMSSamples: 0.5},
			},
			GE: arq.GEConfig{PGoodToBad: 0.002, PBadToGood: 0.2, DeliverGood: 0.99, DeliverBad: 0.5},
		},
		{
			Name: "moderate",
			Impair: impair.Config{
				CFO:    impair.CFOConfig{Enabled: true, OffsetHz: 600, DriftHzPerSec: 200, PhaseNoiseRMSRad: 2e-4},
				SFO:    impair.SFOConfig{Enabled: true, PPM: 2},
				ADC:    impair.ADCConfig{Enabled: true, Bits: 10},
				Jitter: impair.JitterConfig{Enabled: true, RMSSamples: 1},
				Interference: impair.InterferenceConfig{
					Enabled: true, ImpulsesPerSec: 2000, ImpulseSIRdB: 3,
				},
			},
			GE: arq.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.1, DeliverGood: 0.97, DeliverBad: 0.3},
		},
		{
			Name: "severe",
			Impair: impair.Config{
				CFO:    impair.CFOConfig{Enabled: true, OffsetHz: 1200, DriftHzPerSec: 500, PhaseNoiseRMSRad: 5e-4},
				SFO:    impair.SFOConfig{Enabled: true, PPM: 10},
				ADC:    impair.ADCConfig{Enabled: true, Bits: 8, ClipBackoffDB: 9},
				Jitter: impair.JitterConfig{Enabled: true, RMSSamples: 2},
				Interference: impair.InterferenceConfig{
					Enabled: true, ImpulsesPerSec: 10000, ImpulseSIRdB: 0,
					BurstsPerSec: 300, BurstDurationSec: 1e-3, BurstSIRdB: -3,
				},
			},
			GE: arq.GEConfig{PGoodToBad: 0.03, PBadToGood: 0.06, DeliverGood: 0.9, DeliverBad: 0.05},
		},
	}
}

// ResilienceSweep (R1) runs the bit-true chain through the impairment
// ladder and reports, per level: backscatter BER, goodput, the carrier
// loop's re-acquisition count, and selective-repeat ARQ efficiency over the
// matching burst-loss channel. The "off" row doubles as a regression anchor:
// it must match the clean chain bit for bit.
func ResilienceSweep(seed uint64) *Result {
	res := &Result{
		ID:     "R1",
		Title:  "Link resilience vs injected impairments (1.4 MHz exact chain)",
		Header: []string{"level", "stages", "BER", "throughput", "synced", "reacq", "ARQ eff", "ARQ slots"},
	}
	for _, lvl := range ImpairmentLevels() {
		cfg := core.DefaultLinkConfig(ltephy.BW1_4)
		cfg.Mode = core.Exact
		cfg.Subframes = 6
		cfg.Seed = seed
		ic := lvl.Impair
		ic.Seed = seed ^ 0xa24baed4963ee407
		describe := impair.New(impair.Config{
			Jitter: ic.Jitter, SFO: ic.SFO, CFO: impair.CFOConfig{Enabled: ic.CFO.Enabled},
			Interference: impair.InterferenceConfig{Enabled: ic.Interference.Enabled},
			ADC:          ic.ADC, SampleRate: 1,
		}).Describe()
		if ic.Active() {
			cfg.Impair = &ic
		}
		rep := core.Run(cfg)

		// Link layer: 60 frames over the level's burst-loss channel.
		s := arq.NewSender(16, 6)
		r := arq.NewReceiver(16)
		pay := rng.New(seed ^ 0x5851f42d4c957f2d)
		const frames = 60
		for i := 0; i < frames; i++ {
			s.Queue(pay.Bits(make([]byte, 64)))
		}
		data := arq.NewGilbertElliott(rng.New(seed^0x14057b7ef767814f), lvl.GE)
		ackGE := lvl.GE
		st, _ := arq.Run(s, r, data.Next, arq.NewGilbertElliott(rng.New(seed^0x27bb2ee687b0b0fd), ackGE).Next, frames, 100000)

		res.Rows = append(res.Rows, []string{
			lvl.Name,
			describe,
			fber(rep.BER),
			fbps(rep.ThroughputBps),
			fmt.Sprintf("%v", rep.Synced),
			fmt.Sprintf("%d", rep.Reacquisitions),
			fmt.Sprintf("%.2f", st.Efficiency),
			fmt.Sprintf("%d", st.Slots),
		})
	}
	res.Notes = append(res.Notes,
		"the 'off' row is the clean-chain regression anchor: identical RNG path, zero impairment draws",
		"CFO/SFO follow Ruttik et al. and Liao et al. on clock error dominating LTE backscatter BER; see docs/RESILIENCE.md",
		"ARQ columns run selective repeat over a Gilbert-Elliott burst channel matched to each level")
	return res
}
