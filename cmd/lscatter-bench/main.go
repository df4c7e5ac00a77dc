// Command lscatter-bench regenerates the paper's tables and figures from the
// simulated LScatter system.
//
// Usage:
//
//	lscatter-bench -list
//	lscatter-bench -id F23 [-seed 7]
//	lscatter-bench -all [-parallel 8] [-metrics out.json]
//	lscatter-bench -all -artifact-dir DIR [-resume]
//	lscatter-bench -all -shard-workers http://127.0.0.1:9301,http://127.0.0.1:9302
//	lscatter-bench -impair [-seed 7] [-metrics out.json]
//	lscatter-bench -rtf [-rtf-subframes 2000] [-metrics out.json]
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
// artifacts recomputes exactly N−K on restart. -shard-workers fans the sweep
// out to lscatter-worker HTTP processes instead of computing in-process.
// Every executor prints byte-identical tables — the checkpoint/restore
// summary goes to stderr. See docs/DISTRIBUTED.md.
//
// -rtf measures the real-time factor of the transport pipeline at 20 MHz on
// one goroutine (fixed-point streamer headline plus the full Session)
// and prints the result; it composes with -all and -metrics, in which case
// the measurement lands in the report's "rtf" object. The methodology and
// the recorded targets live in docs/PERFORMANCE.md; `make rtf-check` gates
// regressions against BENCH_R2.json.
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

// writeMetrics serializes the run report to path, atomically — a crash
// mid-write leaves either the previous complete report or the new one.
func writeMetrics(path string, rep *experiments.Report) error {
	return rep.WriteFile(path)
}

// usageError prints a flag-validation failure plus usage and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lscatter-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		id       = flag.String("id", "", "artifact to regenerate (e.g. T1, F4c, F16, F23, F32, P48)")
		all      = flag.Bool("all", false, "regenerate every artifact")
		list     = flag.Bool("list", false, "list artifact IDs")
		seed     = flag.Uint64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 1, "worker count for -all (0 = NumCPU, 1 = sequential)")
		metrics  = flag.String("metrics", "", "write a JSON metrics report to this file")

		artifactDir  = flag.String("artifact-dir", "", "checkpoint -all artifacts into this durable store")
		resume       = flag.Bool("resume", false, "restore already-checkpointed artifacts from -artifact-dir")
		shardWorkers = flag.String("shard-workers", "", "comma-separated lscatter-worker base URLs for -all")
		impaired = flag.Bool("impair", false, "run the link-resilience sweep (shorthand for -id R1)")
		rtf      = flag.Bool("rtf", false, "measure the transport real-time factor at 20 MHz")
		rtfSF    = flag.Int("rtf-subframes", 0, "timed subframes for -rtf (0 = default 2000)")

		fleetRun     = flag.Bool("fleet", false, "run the event-driven fleet engine standalone")
		fleetTags    = flag.Int("fleet-tags", 1_000_000, "fleet size for -fleet")
		fleetMAC     = flag.String("fleet-mac", "capture", "MAC for -fleet: tdma, aloha or capture")
		fleetMinutes = flag.Float64("fleet-minutes", 1, "simulated minutes for -fleet")
		fleetLoad    = flag.Float64("fleet-load", 0.2, "offered load for -fleet, messages per tag per hour")
	)
	flag.Parse()

	// Flag combinations are validated up front, so a misconfigured sweep
	// fails with a usage error before any artifact computes.
	if *parallel < 0 {
		usageError("-parallel must be >= 0 (0 = NumCPU), got %d", *parallel)
	}
	if *resume && *artifactDir == "" {
		usageError("-resume requires -artifact-dir: there is no store to restore from")
	}
	if (*artifactDir != "" || *resume || *shardWorkers != "") && !*all {
		usageError("-artifact-dir, -resume and -shard-workers apply only to -all")
	}

	// runRTF performs the real-time-factor measurement (after any artifact
	// regeneration, so the timed loop runs on a quiet process).
	runRTF := func() *experiments.RTFReport {
		rep := experiments.RunRTF(experiments.RTFConfig{Subframes: *rtfSF, Seed: *seed})
		fmt.Println(rep.Render())
		return rep
	}

	if *impaired {
		if *id != "" && *id != "R1" {
			fmt.Fprintln(os.Stderr, "-impair and -id are mutually exclusive")
			os.Exit(2)
		}
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
		// The executor stack, innermost out: the local registry pool, or
		// HTTP shards when -shard-workers is set, wrapped in a checkpointing
		// layer when -artifact-dir is set. Output is byte-identical through
		// any stack — the determinism contract RunAllOn documents.
		var ex exec.Executor = &exec.Local{Run: experiments.ExecRunner()}
		if *shardWorkers != "" {
			ex = exec.NewSharded(strings.Split(*shardWorkers, ","), nil)
		}
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
				Key:    experiments.ArtifactKey,
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
			if err := writeMetrics(*metrics, rep); err != nil {
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
			if err := writeMetrics(*metrics, rep); err != nil {
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
			if err := writeMetrics(*metrics, rep); err != nil {
				fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
