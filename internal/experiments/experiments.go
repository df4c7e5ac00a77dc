// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §4) from the simulated LScatter system: each runner
// returns a Result holding the same rows/series the paper reports, rendered
// as aligned text tables.
//
// The registry can be driven one artifact at a time (Lookup, RunOne),
// sequentially (All), or by the concurrent worker pool (RunAll, or
// RunAllCheckpointed to resume from a durable store). The pool is
// RunOrdered, which RunDeployment's fleet and cmd/lscatter-sim's distance
// sweep share. It returns results in index order, and per-artifact seeds
// derive from the master seed via DeriveSeed, so the same seed yields
// byte-identical Rows at any worker count. Each run carries RunMetrics
// (wall time, allocations, waveform-cache hits and misses), and
// BuildReport/Report.WriteJSON serialize a whole harness run for
// performance tracking. cmd/lscatter-bench drives the registry;
// bench_test.go wraps each runner in a testing.B benchmark.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Result is one regenerated table or figure of the paper's evaluation.
// Everything the artifact reports lives in Header/Rows/Notes as formatted
// strings: equality of Rows is the repository's determinism criterion, and
// Render is the only consumer.
type Result struct {
	// ID is the paper artifact identifier ("T1", "F4c", "F16", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry comparisons against the paper's reported values.
	Notes []string
	// Metrics is the harness-side cost of producing this result. It is
	// populated by All/RunAll/RunOne — not by the runners themselves — and
	// never influences Rows, so two runs with the same seed compare equal
	// row-wise even when their timings differ.
	Metrics *RunMetrics
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces a Result for a given seed. Runners are pure: the Result
// depends only on the seed (every random element forks from it), no state is
// shared across runners, and the same seed reproduces the same Rows — which
// is what lets RunAll execute them on concurrent workers without changing
// any output.
type Runner func(seed uint64) *Result

// registry maps artifact IDs to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns the registered artifact identifiers in sorted order. The
// order is the canonical result order of All and RunAll.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the raw runner for an artifact ID. The runner receives
// whatever seed it is called with verbatim; use RunOne to also collect
// RunMetrics, or All/RunAll for the whole registry with derived seeds.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// All regenerates every registered experiment in ID order. It is the
// sequential wrapper over RunAll: artifact id runs with DeriveSeed(seed, id)
// on a single worker, so its results — including every formatted row — are
// byte-identical to RunAll(ctx, seed, n) for any n.
func All(seed uint64) []*Result {
	out, _ := RunAll(context.Background(), seed, 1)
	return out
}

// Formatting helpers shared by the runners.

func fbps(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f Mbps", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f Kbps", v/1e3)
	default:
		return fmt.Sprintf("%.0f bps", v)
	}
}

func fber(v float64) string {
	if v <= 0 {
		return "<1e-6"
	}
	if v < 1e-6 {
		return "<1e-6"
	}
	return fmt.Sprintf("%.2e", v)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
