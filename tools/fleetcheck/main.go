// Command fleetcheck gates the event-driven fleet engine's scaling claim: at
// fixed aggregate load ("parked-heavy" — the same city demand spread over
// ever more parked tags), wall time must grow sub-linearly in fleet size. It
// times a 10^4-tag and a 10^5-tag semi-analytic run (best of three each) and
// fails when the 10x fleet costs more than the allowed ratio. This is the
// check behind `make fleet-check`; the full 10^3..10^6 sweep lives in
// BenchmarkFleet and BENCH_R3.json.
//
// Usage: go run ./tools/fleetcheck [-small n] [-big n] [-max-ratio r]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"lscatter/internal/fleet"
)

// simConfig is the shared parked-heavy workload: fixed 50 msg/s aggregate
// demand, capture MAC, a 20 dB near/far power spread.
func simConfig(tags int) fleet.SimConfig {
	return fleet.SimConfig{
		Config:         fleet.Config{MAC: fleet.AlohaCapture, Seed: 1},
		Tags:           tags,
		DurationSec:    30,
		TotalMsgPerSec: 50,
		NoiseW:         1e-13,
		RxPowerW: func(tag int) float64 {
			return 1e-9 * math.Pow(10, -float64(tag%64)/32)
		},
	}
}

// bestOf times f repeatedly and returns the fastest run — the usual defense
// against scheduler noise on shared CI machines.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func main() {
	small := flag.Int("small", 10_000, "small fleet size")
	big := flag.Int("big", 100_000, "big fleet size (the 10x point)")
	maxRatio := flag.Float64("max-ratio", 3, "fail when big/small wall-time ratio exceeds this")
	flag.Parse()

	var repSmall, repBig fleet.Report
	simSmall := fleet.NewSim(simConfig(*small))
	simBig := fleet.NewSim(simConfig(*big))
	// Warm both engines once (array growth, code paths), then time.
	simSmall.Run(12, 30)
	simBig.Run(12, 30)
	tSmall := bestOf(3, func() { repSmall = simSmall.Run(12, 30) })
	tBig := bestOf(3, func() { repBig = simBig.Run(12, 30) })

	fmt.Printf("fleet %7d tags: %8s  events %d  delivered %d\n", *small, tSmall.Round(time.Microsecond), repSmall.Events, repSmall.Delivered)
	fmt.Printf("fleet %7d tags: %8s  events %d  delivered %d\n", *big, tBig.Round(time.Microsecond), repBig.Events, repBig.Delivered)

	fail := false
	if repSmall.Delivered == 0 || repBig.Delivered == 0 {
		fmt.Println("FAIL: a fleet run delivered nothing — the workload is degenerate")
		fail = true
	}
	ratio := float64(tBig) / float64(tSmall)
	fmt.Printf("wall-time ratio for 10x tags at fixed load: %.2fx (limit %.2fx)\n", ratio, *maxRatio)
	if ratio > *maxRatio {
		fmt.Printf("FAIL: the event-driven engine's cost grew super-linearly with parked-tag count\n")
		fail = true
	}

	if fail {
		os.Exit(1)
	}
	fmt.Println("OK: fleet engine scales sub-linearly in parked tags")
}
