// Command lscatter-trace inspects the ambient-traffic models: it prints
// occupancy series and Figure 4-style spectrogram summaries for LTE, WiFi
// and LoRa at any venue.
//
// Usage:
//
//	lscatter-trace -tech wifi -venue office -hours 24
//	lscatter-trace -tech lte -spectrogram
//
// Usage errors exit 2: an unknown -tech or -venue, fewer than one -hours
// and positional arguments, which no mode reads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lscatter/internal/stats"
	"lscatter/internal/traffic"
)

func techFlag(s string) (traffic.Tech, error) {
	switch s {
	case "lte":
		return traffic.LTE, nil
	case "wifi":
		return traffic.WiFi, nil
	case "lora":
		return traffic.LoRa, nil
	}
	return 0, fmt.Errorf("unknown tech %q (lte, wifi, lora)", s)
}

func venueFlag(s string) (traffic.Venue, error) {
	for _, v := range []traffic.Venue{traffic.Home, traffic.Office, traffic.Classroom, traffic.Mall, traffic.Outdoor} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown venue %q (home, office, classroom, mall, outdoor)", s)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the occupancy table or
// the snapshot to stdout and usage errors to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lscatter-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		techStr  = fs.String("tech", "wifi", "technology: lte, wifi, lora")
		venueStr = fs.String("venue", "home", "venue: home, office, classroom, mall, outdoor")
		hours    = fs.Int("hours", 24, "hours of occupancy to sample")
		spect    = fs.Bool("spectrogram", false, "synthesize a 20 ms IQ snapshot and report measured occupancy")
		seed     = fs.Uint64("seed", 1, "random seed")
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
	if *hours < 1 {
		fmt.Fprintf(stderr, "-hours must be >= 1, got %d\n", *hours)
		return 2
	}
	tech, err := techFlag(*techStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	venue, err := venueFlag(*venueStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *spect {
		var occ float64
		switch tech {
		case traffic.WiFi:
			occ = traffic.MeasuredOccupancy(traffic.WiFiBandIQ(*seed, 20e-3, 20e6), 20e6)
		case traffic.LoRa:
			occ = traffic.MeasuredOccupancy(traffic.LoRaBandIQ(*seed, 100e-3, 2e6), 2e6)
		default:
			occ = 1.0 // LTE: continuous by construction
		}
		fmt.Fprintf(stdout, "%s snapshot: measured frame occupancy %.2f\n", tech, occ)
		return 0
	}

	m := traffic.NewModel(tech, venue, *seed)
	fmt.Fprintf(stdout, "%s occupancy at %s over %d hours:\n", tech, venue, *hours)
	fmt.Fprintln(stdout, "hour  mean   p10    p90")
	var all []float64
	for h := 0; h < *hours; h++ {
		var xs []float64
		for i := 0; i < 30; i++ {
			xs = append(xs, m.Sample(float64(h)+float64(i)/30))
		}
		all = append(all, xs...)
		fmt.Fprintf(stdout, "%4d  %.3f  %.3f  %.3f\n", h, stats.Mean(xs), stats.Percentile(xs, 10), stats.Percentile(xs, 90))
	}
	fmt.Fprintf(stdout, "overall mean %.3f\n", stats.Mean(all))
	return 0
}
