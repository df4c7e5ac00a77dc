// Command lscatter-bench regenerates the paper's tables and figures from the
// simulated LScatter system.
//
// Usage:
//
//	lscatter-bench -list
//	lscatter-bench -id F23 [-seed 7]
//	lscatter-bench -all [-parallel 8] [-metrics out.json]
//	lscatter-bench -all -artifact-dir DIR [-resume]
//	lscatter-bench -impair [-seed 7] [-metrics out.json]
//	lscatter-bench -rtf [-metrics out.json]
//
// With -all, artifacts run on a worker pool (-parallel N; 0 selects NumCPU,
// 1 — the default — is sequential). The output is deterministic: each
// artifact's seed derives from -seed and its ID, so any worker count prints
// identical tables. -metrics writes a JSON report of per-artifact wall time,
// allocations and waveform-cache hit rate; see docs/BENCHMARKS.md.
//
// -artifact-dir checkpoints every finished artifact into a durable
// content-addressed store as the sweep runs; -resume additionally restores
// already-checkpointed artifacts from it, so a sweep killed after K of N
// artifacts recomputes exactly N−K on restart. A checkpointed sweep prints
// byte-identical tables — the checkpoint/restore summary goes to stderr. See
// the execution-layer section of docs/ARCHITECTURE.md.
//
// -rtf measures the float Session's real-time factor at 20 MHz on one
// goroutine — simulated seconds per wall-clock second for the full chain
// (source generation, tag modulation, paths, combine, noise) — and prints
// it; it composes with -all and -metrics, in which case the measurement
// lands in the report's "rtf" object. The methodology and the recorded
// trajectory live in docs/PERFORMANCE.md.
//
// -impair is shorthand for the link-resilience sweep (-id R1): the exact
// chain run through the off/mild/moderate/severe fault-injection ladder,
// reporting BER, throughput and carrier-loop re-acquisitions per level; see
// docs/RESILIENCE.md.
//
// -fleet runs the event-driven fleet engine standalone (see docs/FLEET.md):
// a single shared-channel cell of -fleet-tags tags under -fleet-mac
// arbitration for -fleet-minutes simulated minutes, printing the delivery,
// collision and latency report. The city-scale artifact itself is -id C1.
//
// -fleet, -list, -all, -id (or -impair) and -rtf each select one run mode,
// and at most one may be given; the exceptions are -rtf, which composes with
// -all, and -impair -id R1, which names the same sweep twice. Positional
// arguments are rejected.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"lscatter/internal/exec"
	"lscatter/internal/experiments"
	"lscatter/internal/fleet"
	"lscatter/internal/store"
)

// usageError prints a flag-validation failure plus usage and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lscatter-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// validateModes rejects positional arguments, which no mode reads, and a
// request for more than one run mode, which would silently run only one.
func validateModes(args []string, fleetRun, list, all, rtf, impair bool, id string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %v", args)
	}
	if impair && id != "" && id != "R1" {
		return fmt.Errorf("-impair runs -id R1; it cannot be combined with -id %s", id)
	}
	var modes []string
	for _, m := range []struct {
		name string
		on   bool
	}{
		{"-fleet", fleetRun},
		{"-list", list},
		{"-all", all},
		{"-id/-impair", id != "" || impair},
		{"-rtf", rtf && !all},
	} {
		if m.on {
			modes = append(modes, m.name)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s are mutually exclusive", strings.Join(modes, " and "))
	}
	return nil
}

// validateFleetFlags checks the -fleet options: a fleet size the engine
// supports, a positive finite horizon and a finite non-negative load.
func validateFleetFlags(tags int, minutes, load float64) error {
	if tags < 1 || tags > fleet.MaxTags {
		return fmt.Errorf("-fleet-tags must be in [1, %d], got %d", fleet.MaxTags, tags)
	}
	if math.IsNaN(minutes) || math.IsInf(minutes, 0) || minutes <= 0 {
		return fmt.Errorf("-fleet-minutes must be finite and > 0, got %v", minutes)
	}
	if math.IsNaN(load) || math.IsInf(load, 0) || load < 0 {
		return fmt.Errorf("-fleet-load must be finite and >= 0, got %v", load)
	}
	return nil
}

func main() {
	var (
		id       = flag.String("id", "", "artifact to regenerate (e.g. T1, F4c, F16, F23, F32, P48)")
		all      = flag.Bool("all", false, "regenerate every artifact")
		list     = flag.Bool("list", false, "list artifact IDs")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 1, "worker count for -all (0 = NumCPU, 1 = sequential)")
		metrics  = flag.String("metrics", "", "write a JSON metrics report to this file")

		artifactDir = flag.String("artifact-dir", "", "checkpoint -all artifacts into this durable store")
		resume      = flag.Bool("resume", false, "restore already-checkpointed artifacts from -artifact-dir")
		impaired    = flag.Bool("impair", false, "run the link-resilience sweep (shorthand for -id R1)")
		rtf         = flag.Bool("rtf", false, "measure the Session real-time factor at 20 MHz")

		fleetRun     = flag.Bool("fleet", false, "run the event-driven fleet engine standalone")
		fleetTags    = flag.Int("fleet-tags", 1_000_000, "fleet size for -fleet")
		fleetMAC     = flag.String("fleet-mac", "capture", "MAC for -fleet: tdma, aloha or capture")
		fleetMinutes = flag.Float64("fleet-minutes", 1, "simulated minutes for -fleet")
		fleetLoad    = flag.Float64("fleet-load", 0.2, "offered load for -fleet, messages per tag per hour")
	)
	flag.Parse()

	// Flag combinations are validated up front, so a misconfigured sweep
	// fails with a usage error before any artifact computes.
	if err := validateModes(flag.Args(), *fleetRun, *list, *all, *rtf, *impaired, *id); err != nil {
		usageError("%v", err)
	}
	if *parallel < 0 {
		usageError("-parallel must be >= 0 (0 = NumCPU), got %d", *parallel)
	}
	if *resume && *artifactDir == "" {
		usageError("-resume requires -artifact-dir: there is no store to restore from")
	}
	if (*artifactDir != "" || *resume) && !*all {
		usageError("-artifact-dir and -resume apply only to -all")
	}
	if *fleetRun {
		if err := validateFleetFlags(*fleetTags, *fleetMinutes, *fleetLoad); err != nil {
			usageError("%v", err)
		}
	}

	// runRTF performs the real-time-factor measurement (after any artifact
	// regeneration, so the timed loop runs on a quiet process).
	runRTF := func() *experiments.RTFReport {
		rep := experiments.RunRTF(*seed)
		fmt.Println(rep.Render())
		return rep
	}

	if *impaired {
		*id = "R1"
	}

	switch {
	case *fleetRun:
		mac, err := fleet.ParseMAC(*fleetMAC)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		rep := fleet.Simulate(fleet.SimConfig{
			Config:        fleet.Config{MAC: mac, Seed: *seed},
			Tags:          *fleetTags,
			DurationSec:   *fleetMinutes * 60,
			MsgPerTagHour: *fleetLoad,
			// A deterministic 20 dB near/far power spread, so capture
			// arbitration has something to arbitrate. The venue-calibrated
			// link budgets live in artifact C1.
			NoiseW: 1e-13,
			RxPowerW: func(tag int) float64 {
				return 1e-9 * math.Pow(10, -float64(tag%64)/32)
			},
		})
		wall := time.Since(start)
		fmt.Printf("fleet: %d tags, mac=%s, %.1f min simulated\n", rep.Tags, mac, *fleetMinutes)
		fmt.Printf("  offered %d  delivered %d  dropped %d  backlog %d\n",
			rep.Arrivals, rep.Delivered, rep.Dropped, rep.Backlog)
		fmt.Printf("  active slots %d  collisions %d (%.1f%%)  capture wins %d\n",
			rep.ActiveSlots, rep.Collisions, rep.CollisionRate*100, rep.CaptureWins)
		fmt.Printf("  goodput %.0f bps  latency p50/p90/p99 %.0f/%.0f/%.0f ms\n",
			rep.GoodputBps, rep.LatencyMsP50, rep.LatencyMsP90, rep.LatencyMsP99)
		fmt.Printf("  events %d  wall %s (%.0f events/s)\n",
			rep.Events, wall.Round(time.Millisecond), float64(rep.Events)/wall.Seconds())
	case *list:
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
	case *all:
		// The executor stack, innermost out: the local registry pool,
		// wrapped in a checkpointing layer when -artifact-dir is set. Output
		// is byte-identical either way — the determinism contract RunAllOn
		// documents.
		var ex exec.Executor = experiments.ExecRunner()
		var ckpt *exec.Checkpointed
		if *artifactDir != "" {
			logf := func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
			st, err := store.Open(*artifactDir, 0, logf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			ckpt = &exec.Checkpointed{
				Inner:  ex,
				Store:  st,
				Resume: *resume,
			}
			ex = ckpt
		}
		start := time.Now()
		results, err := experiments.RunAllOn(context.Background(), ex, *seed, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if ckpt != nil {
			// Stderr, so stdout stays byte-identical across executors.
			computed, restored := ckpt.Stats()
			fmt.Fprintf(os.Stderr, "checkpoint: computed %d, restored %d (store %s)\n",
				computed, restored, *artifactDir)
		}
		for _, res := range results {
			fmt.Println(res.Render())
		}
		var rtfRep *experiments.RTFReport
		if *rtf {
			rtfRep = runRTF()
		}
		if *metrics != "" {
			rep := experiments.BuildReport(*seed, *parallel, wall, results)
			rep.RTF = rtfRep
			if err := rep.WriteFile(*metrics); err != nil {
				fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
				os.Exit(1)
			}
		}
	case *id != "":
		start := time.Now()
		res, ok := experiments.RunOne(*id, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown artifact %q; known: %s\n", *id, strings.Join(experiments.IDs(), ", "))
			os.Exit(2)
		}
		fmt.Println(res.Render())
		if *metrics != "" {
			rep := experiments.BuildReport(*seed, 1, time.Since(start), []*experiments.Result{res})
			if err := rep.WriteFile(*metrics); err != nil {
				fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
				os.Exit(1)
			}
		}
	case *rtf:
		start := time.Now()
		rep := experiments.BuildReport(*seed, 1, 0, nil)
		rep.RTF = runRTF()
		rep.WallSeconds = time.Since(start).Seconds()
		if *metrics != "" {
			if err := rep.WriteFile(*metrics); err != nil {
				fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
