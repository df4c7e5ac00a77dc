package core

import (
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/ltephy"
	"lscatter/internal/stats"
)

func TestRawBackscatterRateMatchesPaper(t *testing.T) {
	// §4.3.1: the paper reports 13.63 Mbps at 20 MHz; the frame arithmetic
	// (114 payload symbols x 1200 bits per 10 ms) gives 13.68 Mbps.
	r := RawBackscatterRate(ltephy.BW20)
	if r < 13.3e6 || r > 14.0e6 {
		t.Fatalf("20 MHz raw rate = %v, want ~13.68 Mbps", r)
	}
	// 1.4 MHz: the paper reports ~800 Kbps (Fig 18 discussion).
	r = RawBackscatterRate(ltephy.BW1_4)
	if r < 0.7e6 || r > 0.9e6 {
		t.Fatalf("1.4 MHz raw rate = %v, want ~0.82 Mbps", r)
	}
}

func TestRawRateProportionalToBandwidthRBs(t *testing.T) {
	// Fig 18: throughput directly proportional to bandwidth (in RBs).
	base := RawBackscatterRate(ltephy.BW1_4) / 6
	for _, bw := range ltephy.Bandwidths {
		r := RawBackscatterRate(bw) / float64(bw.NRB())
		if math.Abs(r-base) > 1e-9 {
			t.Fatalf("%v: rate per RB %v differs from %v", bw, r, base)
		}
	}
}

func TestSemiAnalyticCloseRange(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW20)
	rep := Run(cfg)
	if !rep.Synced || !rep.LTEOK || !rep.TagHearsENodeB {
		t.Fatalf("close-range link not fully up: %+v", rep)
	}
	if rep.BER > 1e-4 {
		t.Fatalf("close-range BER = %v", rep.BER)
	}
	if rep.ThroughputBps < 13e6 {
		t.Fatalf("close-range throughput = %v, want ~13.6 Mbps", rep.ThroughputBps)
	}
}

func TestSemiAnalyticThroughputDecreasesWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, ft := range []float64{10, 40, 80, 160, 320, 640} {
		cfg := DefaultLinkConfig(ltephy.BW20)
		cfg.TagToUEM = channel.FeetToMeters(ft)
		cfg.ENodeBToUEM = channel.FeetToMeters(ft + 3)
		rep := Run(cfg)
		if rep.ThroughputBps > prev+1 {
			t.Fatalf("throughput increased with distance at %v ft", ft)
		}
		prev = rep.ThroughputBps
	}
}

func TestSemiAnalyticBERIncreasesWithDistance(t *testing.T) {
	var last float64
	for _, ft := range []float64{10, 80, 200, 500} {
		cfg := DefaultLinkConfig(ltephy.BW20)
		cfg.TagToUEM = channel.FeetToMeters(ft)
		cfg.ENodeBToUEM = channel.FeetToMeters(ft + 3)
		rep := Run(cfg)
		if rep.BER < last-1e-12 {
			t.Fatalf("BER decreased with distance at %v ft", ft)
		}
		last = rep.BER
	}
}

func TestMallRangeTargets(t *testing.T) {
	// Fig 24: BER < 0.1% within 40 ft, < 1% within 150 ft (tag near the
	// eNodeB, UE moving away). Mall corridors waveguide: measured indoor
	// corridor exponents run 1.6-1.9, which is what lets the paper's link
	// hold to 150+ ft.
	cfg := DefaultLinkConfig(ltephy.BW20)
	cfg.PathLossExponent = 1.8
	cfg.TagToUEM = channel.FeetToMeters(40)
	cfg.ENodeBToUEM = channel.FeetToMeters(43)
	if rep := Run(cfg); rep.BER > 1e-3 {
		t.Fatalf("BER at 40 ft = %v, want < 0.1%%", rep.BER)
	}
	cfg.TagToUEM = channel.FeetToMeters(150)
	cfg.ENodeBToUEM = channel.FeetToMeters(153)
	if rep := Run(cfg); rep.BER > 1e-2 {
		t.Fatalf("BER at 150 ft = %v, want < 1%%", rep.BER)
	}
}

func TestTagSensitivityGatesLink(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW20)
	cfg.ENodeBToTagM = 4000 // tag hears nothing at 4 km from a 10 dBm source
	rep := Run(cfg)
	if rep.TagHearsENodeB {
		t.Fatal("tag reported hearing a 10 dBm eNodeB at 4 km")
	}
	if rep.ThroughputBps != 0 {
		t.Fatal("throughput nonzero with a deaf tag")
	}
}

func TestLTEDecodeGatesLink(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW20)
	cfg.ENodeBToUEM = 60000 // UE cannot decode the direct path
	rep := Run(cfg)
	if rep.LTEOK {
		t.Fatal("LTE decode reported OK at 60 km")
	}
	if rep.ThroughputBps != 0 {
		t.Fatal("throughput nonzero without a reference")
	}
}

func TestAmplifierExtendsRange(t *testing.T) {
	// Fig 30: boosting 10 -> 40 dBm stretches the feasible geometry.
	at := func(pwr float64) float64 {
		cfg := DefaultLinkConfig(ltephy.BW20)
		cfg.TxPowerDBm = pwr
		cfg.PathLossExponent = 2.0
		cfg.Indoor = false
		cfg.ENodeBToTagM = channel.FeetToMeters(24)
		cfg.TagToUEM = channel.FeetToMeters(160)
		cfg.ENodeBToUEM = channel.FeetToMeters(170)
		return Run(cfg).ThroughputBps
	}
	weak, strong := at(10), at(40)
	if strong < 10e6 {
		t.Fatalf("40 dBm at 24/160 ft: throughput %v, want >10 Mbps (Fig 30)", strong)
	}
	if weak >= strong {
		t.Fatalf("amplifier did not help: %v vs %v", weak, strong)
	}
}

func TestNLoSDropsUnder10Percent(t *testing.T) {
	// Fig 18: NLoS costs less than 10% at short range.
	los := DefaultLinkConfig(ltephy.BW20)
	nlos := los
	nlos.LoS = false
	nlos.PathLossExponent = 2.8
	tl, tn := Run(los).ThroughputBps, Run(nlos).ThroughputBps
	if tn > tl {
		t.Fatalf("NLoS throughput above LoS")
	}
	if (tl-tn)/tl > 0.10 {
		t.Fatalf("NLoS drop = %v%%, want < 10%%", 100*(tl-tn)/tl)
	}
}

func TestSamplesDistribution(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW20)
	cfg.TagToUEM = channel.FeetToMeters(100)
	cfg.ENodeBToUEM = channel.FeetToMeters(103)
	xs := Samples(cfg, 50)
	if len(xs) != 50 {
		t.Fatalf("%d samples", len(xs))
	}
	s := stats.Summarize(xs)
	if s.Median <= 0 {
		t.Fatal("median throughput zero at 100 ft")
	}
	if s.Std == 0 {
		t.Fatal("no variation across fading realizations")
	}
}

func TestSamplesExactMode(t *testing.T) {
	// Samples must honor Mode: each Exact realization is the bit-true chain
	// at the derived per-realization seed, reproducible via Run.
	cfg := DefaultLinkConfig(ltephy.BW1_4)
	cfg.Mode = Exact
	cfg.Subframes = 2
	xs := Samples(cfg, 2)
	if len(xs) != 2 {
		t.Fatalf("%d samples", len(xs))
	}
	for i, x := range xs {
		want := cfg
		want.Seed = cfg.Seed + uint64(i)*7919
		if rep := Run(want); rep.ThroughputBps != x {
			t.Fatalf("realization %d = %v, want the exact chain's %v", i, x, rep.ThroughputBps)
		}
	}
}

func TestExplicitZerosHonored(t *testing.T) {
	// Run uses every field as given: 0 dBm transmit power and a lossless
	// tag are valid configurations, not requests for the defaults. An
	// explicit 0 dBm link must actually run 10 dB weaker than the default,
	// and a 0 dB tag stronger than the default 4 dB one.
	def := DefaultLinkConfig(ltephy.BW20)
	def.TagToUEM = channel.FeetToMeters(200)
	def.ENodeBToUEM = channel.FeetToMeters(203)
	lo := def
	lo.TxPowerDBm = 0
	if l, d := Run(lo), Run(def); l.ThroughputBps >= d.ThroughputBps {
		t.Fatalf("0 dBm link (%v bps) not weaker than the 10 dBm default (%v bps)",
			l.ThroughputBps, d.ThroughputBps)
	}
	lossless := def
	lossless.TagLossDB = 0
	if l, d := Run(lossless), Run(def); l.ScatterSNRdB <= d.ScatterSNRdB {
		t.Fatalf("0 dB tag (%v dB SNR) not stronger than the 4 dB default (%v dB)",
			l.ScatterSNRdB, d.ScatterSNRdB)
	}
}

func TestExactModeCloseRange(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW1_4)
	cfg.Mode = Exact
	cfg.Subframes = 3
	rep := Run(cfg)
	if !rep.LTEOK {
		t.Fatal("exact: LTE decode failed at close range")
	}
	if !rep.Synced {
		t.Fatal("exact: no preamble sync at close range")
	}
	if rep.BitsCompared == 0 {
		t.Fatal("exact: no bits compared")
	}
	if rep.BER > 0.01 {
		t.Fatalf("exact: close-range BER = %v", rep.BER)
	}
}

func TestExactVsSemiAnalyticAgreement(t *testing.T) {
	// The semi-analytic model must agree with the bit-true chain on link
	// viability across regimes: both excellent at close range, both
	// degraded far out.
	for _, ft := range []float64{5, 600} {
		cfg := DefaultLinkConfig(ltephy.BW1_4)
		cfg.TagToUEM = channel.FeetToMeters(ft)
		cfg.ENodeBToUEM = channel.FeetToMeters(ft + 3)
		cfg.Subframes = 3
		sa := Run(cfg)
		cfg.Mode = Exact
		ex := Run(cfg)
		good := ft < 100
		if good {
			if sa.BER > 1e-3 || ex.BER > 1e-2 {
				t.Fatalf("%v ft: SA %v / exact %v BER, want both near zero", ft, sa.BER, ex.BER)
			}
		} else {
			if sa.BER < 0.02 {
				t.Fatalf("%v ft: semi-analytic BER %v, want degraded", ft, sa.BER)
			}
			if ex.Synced && ex.BER < 0.005 {
				t.Fatalf("%v ft: exact BER %v, want degraded", ft, ex.BER)
			}
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := DefaultLinkConfig(ltephy.BW20)
	cfg.TagToUEM = channel.FeetToMeters(120)
	a, b := Run(cfg), Run(cfg)
	if a != b {
		t.Fatal("semi-analytic run not deterministic")
	}
}
