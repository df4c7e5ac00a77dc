// Command benchdiff compares two lscatter-bench -metrics JSON reports and
// fails when the newer one's allocations regress beyond a threshold. It
// prints a per-artifact table of wall-clock and allocated bytes, the report
// totals, and exits nonzero if total alloc_bytes grew by more than the
// allowed percentage. Allocations are the budget this repo tracks: they are
// deterministic. Each report's wall times come from one run, taken whenever
// it was recorded on a shared box, so the wall columns and total are
// labeled single-run and advisory and never gate; compare wall clock with
// alternated runs of both commits on the same box instead.
//
// Usage: go run ./tools/benchdiff [-max-alloc-regress pct] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type artifact struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
}

type report struct {
	Workers     int        `json:"workers"`
	WallSeconds float64    `json:"wall_seconds"`
	Artifacts   []artifact `json:"artifacts"`
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) totals() (alloc, mallocs uint64, wall float64) {
	for _, a := range r.Artifacts {
		alloc += a.AllocBytes
		mallocs += a.Mallocs
		wall += a.WallSeconds
	}
	return
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func main() {
	maxAlloc := flag.Float64("max-alloc-regress", 5, "fail if total alloc_bytes grows more than this percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-alloc-regress pct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldR, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newR, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldByID := make(map[string]artifact, len(oldR.Artifacts))
	for _, a := range oldR.Artifacts {
		oldByID[a.ID] = a
	}
	fmt.Println("wall: one run per report, advisory only (not gated)")
	fmt.Printf("%-4s %12s %12s %8s %12s %12s %8s\n",
		"id", "wall1(old)", "wall1(new)", "Δ%", "alloc(old)", "alloc(new)", "Δ%")
	for _, n := range newR.Artifacts {
		o, ok := oldByID[n.ID]
		if !ok {
			fmt.Printf("%-4s %38s %12.1fMB (new artifact)\n", n.ID, "", mb(n.AllocBytes))
			continue
		}
		fmt.Printf("%-4s %11.3fs %11.3fs %7.1f%% %10.1fMB %10.1fMB %7.1f%%\n",
			n.ID, o.WallSeconds, n.WallSeconds, pct(o.WallSeconds, n.WallSeconds),
			mb(o.AllocBytes), mb(n.AllocBytes), pct(float64(o.AllocBytes), float64(n.AllocBytes)))
	}
	for _, o := range oldR.Artifacts {
		found := false
		for _, n := range newR.Artifacts {
			if n.ID == o.ID {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-4s (removed)\n", o.ID)
		}
	}

	oa, om, ow := oldR.totals()
	na, nm, nw := newR.totals()
	allocPct := pct(float64(oa), float64(na))
	fmt.Printf("\ntotal wall (single run, advisory): %.3fs -> %.3fs (%+.1f%%)\n", ow, nw, pct(ow, nw))
	fmt.Printf("total alloc:   %.1fMB -> %.1fMB (%+.1f%%)\n", mb(oa), mb(na), allocPct)
	fmt.Printf("total mallocs: %d -> %d (%+.1f%%)\n", om, nm, pct(float64(om), float64(nm)))

	if allocPct > *maxAlloc {
		fmt.Printf("FAIL: total alloc_bytes regressed %.1f%% (limit %.1f%%)\n", allocPct, *maxAlloc)
		os.Exit(1)
	}
	fmt.Println("OK: total alloc_bytes within the regression threshold")
}
