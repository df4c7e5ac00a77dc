// Command lscatter-sim evaluates one LScatter link scenario and prints the
// resulting throughput, BER and link-budget diagnostics.
//
// Usage:
//
//	lscatter-sim -bw 20 -enb-tag 3 -tag-ue 80 -power 10 -exponent 2.2
//	lscatter-sim -bw 1.4 -mode exact -subframes 5
//	lscatter-sim -bw 1.4 -mode exact -impair moderate
//	lscatter-sim -bw 1.4 -mode exact -cfo 800 -sfo-ppm 2 -adc-bits 8
//	lscatter-sim -sweep 10:200:10 -parallel 0
//
// A -sweep evaluates one link per distance step; -parallel fans the points
// out over experiments.RunOrdered's pool (0 = NumCPU, never more workers
// than points; below 0 is a usage error and exits 2). Every point is seeded
// independently, so the printed table is identical at any worker count.
//
// Fault injection (exact mode only): -impair selects a named level of the
// resilience ladder (off, mild, moderate, severe; see docs/RESILIENCE.md),
// and -cfo/-sfo-ppm/-adc-bits/-jitter-rms switch on individual stages on
// top of (or instead of) the level.
//
// Usage errors exit 2: an unknown -bw, -mode or -impair value, a bad
// -sweep, a negative -parallel, a non-finite -power, fewer than one
// -subframes in exact mode, impairments without -mode exact, and
// positional arguments, which no mode reads.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/experiments"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
)

// impairmentFor assembles the fault-injection config from the -impair level
// and the individual stage flags (which override or extend the level). It
// returns nil when no fault injection is requested.
func impairmentFor(level string, cfoHz, sfoPPM float64, adcBits int, jitterRMS float64) (*impair.Config, error) {
	var ic impair.Config
	switch level {
	case "", "off":
	default:
		found := false
		for _, lvl := range experiments.ImpairmentLevels() {
			if lvl.Name == level {
				ic = lvl.Impair
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown impairment level %q (use off, mild, moderate or severe)", level)
		}
	}
	if cfoHz != 0 {
		ic.CFO = impair.CFOConfig{Enabled: true, OffsetHz: cfoHz}
	}
	if sfoPPM != 0 {
		ic.SFO = impair.SFOConfig{Enabled: true, PPM: sfoPPM}
	}
	if adcBits != 0 {
		ic.ADC = impair.ADCConfig{Enabled: true, Bits: adcBits}
	}
	if jitterRMS != 0 {
		ic.Jitter = impair.JitterConfig{Enabled: true, RMSSamples: jitterRMS}
	}
	if !ic.Active() {
		return nil, nil
	}
	return &ic, nil
}

func bandwidthFlag(v string) (ltephy.Bandwidth, error) {
	for _, bw := range ltephy.Bandwidths {
		if v+"MHz" == bw.String() {
			return bw, nil
		}
	}
	return 0, fmt.Errorf("unknown bandwidth %q (use 1.4, 3, 5, 10, 15 or 20)", v)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report or the sweep
// table to stdout and usage errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lscatter-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bwStr     = fs.String("bw", "20", "LTE bandwidth in MHz (1.4, 3, 5, 10, 15, 20)")
		enbTag    = fs.Float64("enb-tag", 3, "eNodeB-to-tag distance in feet")
		tagUE     = fs.Float64("tag-ue", 3, "tag-to-UE distance in feet")
		enbUE     = fs.Float64("enb-ue", 0, "eNodeB-to-UE distance in feet (default: sum of the hops)")
		power     = fs.Float64("power", 10, "eNodeB transmit power in dBm")
		exponent  = fs.Float64("exponent", 2.2, "path-loss exponent")
		nlos      = fs.Bool("nlos", false, "non-line-of-sight fading")
		mode      = fs.String("mode", "analytic", "evaluation mode: analytic or exact")
		subframes = fs.Int("subframes", 5, "subframes to simulate in exact mode")
		seed      = fs.Uint64("seed", 1, "random seed")
		sweep     = fs.String("sweep", "", "sweep tag-to-UE distance: \"start:stop:step\" in feet, prints a table")
		parallel  = fs.Int("parallel", 1, "worker count for -sweep (0 = NumCPU, 1 = sequential)")
		level     = fs.String("impair", "", "impairment level for exact mode: off, mild, moderate or severe")
		cfoHz     = fs.Float64("cfo", 0, "carrier-frequency offset in Hz (exact mode; enables the CFO stage)")
		sfoPPM    = fs.Float64("sfo-ppm", 0, "sampling clock offset in ppm (exact mode; enables the SFO stage)")
		adcBits   = fs.Int("adc-bits", 0, "ADC resolution in bits (exact mode; enables the ADC stage)")
		jitterRMS = fs.Float64("jitter-rms", 0, "tag timing jitter RMS in basic-timing units (exact mode)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "-parallel must be >= 0 (0 = NumCPU), got %d\n", *parallel)
		return 2
	}

	bw, err := bandwidthFlag(*bwStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := core.DefaultLinkConfig(bw)
	cfg.TxPowerDBm = *power
	cfg.ENodeBToTagM = channel.FeetToMeters(*enbTag)
	cfg.TagToUEM = channel.FeetToMeters(*tagUE)
	if *enbUE > 0 {
		cfg.ENodeBToUEM = channel.FeetToMeters(*enbUE)
	} else {
		cfg.ENodeBToUEM = channel.FeetToMeters(*enbTag + *tagUE)
	}
	cfg.PathLossExponent = *exponent
	cfg.LoS = !*nlos
	cfg.Seed = *seed
	cfg.Subframes = *subframes
	switch *mode {
	case "analytic":
	case "exact":
		cfg.Mode = core.Exact
	default:
		fmt.Fprintf(stderr, "unknown mode %q (use analytic or exact)\n", *mode)
		return 2
	}
	// core.Run uses every field as given, so a value it cannot simulate is a
	// usage error here rather than a panic or an un-run link later.
	if math.IsNaN(*power) || math.IsInf(*power, 0) {
		fmt.Fprintf(stderr, "-power must be finite, got %v\n", *power)
		return 2
	}
	if cfg.Mode == core.Exact && *subframes < 1 {
		fmt.Fprintf(stderr, "-subframes must be >= 1 in exact mode, got %d\n", *subframes)
		return 2
	}

	ic, err := impairmentFor(*level, *cfoHz, *sfoPPM, *adcBits, *jitterRMS)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if ic != nil {
		if cfg.Mode != core.Exact {
			fmt.Fprintln(stderr, "impairments need -mode exact (the analytic model has no waveform to corrupt)")
			return 2
		}
		cfg.Impair = ic
	}

	if *sweep != "" {
		var start, stop, step float64
		if _, err := fmt.Sscanf(*sweep, "%g:%g:%g", &start, &stop, &step); err != nil || step <= 0 || stop < start {
			fmt.Fprintf(stderr, "bad sweep %q, want start:stop:step in feet\n", *sweep)
			return 2
		}
		var dists []float64
		var cfgs []core.LinkConfig
		for d := start; d <= stop+1e-9; d += step {
			c := cfg
			c.TagToUEM = channel.FeetToMeters(d)
			c.ENodeBToUEM = channel.FeetToMeters(*enbTag + d)
			dists = append(dists, d)
			cfgs = append(cfgs, c)
		}
		// No error is possible: core.Run cannot fail and nothing cancels.
		reports, _ := experiments.RunOrdered(context.Background(), len(cfgs), *parallel, func(i, _ int) (core.LinkReport, error) {
			return core.Run(cfgs[i]), nil
		})
		fmt.Fprintf(stdout, "tag-UE (ft)  throughput (Mbps)  BER        scatter SNR (dB)\n")
		for i, rep := range reports {
			fmt.Fprintf(stdout, "%-11.0f  %-17.3f  %-9.3g  %.1f\n",
				dists[i], rep.ThroughputBps/1e6, rep.BER, rep.ScatterSNRdB)
		}
		return 0
	}

	rep := core.Run(cfg)
	fmt.Fprintf(stdout, "LScatter link: %s, %.0f dBm, eNB-tag %.0f ft, tag-UE %.0f ft, exponent %.1f\n",
		bw, *power, *enbTag, *tagUE, *exponent)
	fmt.Fprintf(stdout, "  tag hears eNodeB : %v\n", rep.TagHearsENodeB)
	fmt.Fprintf(stdout, "  LTE decode       : %v (direct SNR %.1f dB)\n", rep.LTEOK, rep.DirectSNRdB)
	fmt.Fprintf(stdout, "  preamble sync    : %v\n", rep.Synced)
	fmt.Fprintf(stdout, "  scatter unit SNR : %.1f dB\n", rep.ScatterSNRdB)
	fmt.Fprintf(stdout, "  BER              : %.3g\n", rep.BER)
	fmt.Fprintf(stdout, "  raw rate         : %.2f Mbps\n", rep.RawRateBps/1e6)
	fmt.Fprintf(stdout, "  throughput       : %.2f Mbps\n", rep.ThroughputBps/1e6)
	if rep.BitsCompared > 0 {
		fmt.Fprintf(stdout, "  bits compared    : %d (exact mode)\n", rep.BitsCompared)
	}
	return 0
}
