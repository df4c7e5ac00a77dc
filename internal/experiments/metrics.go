package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"lscatter/internal/ltephy"
	"lscatter/internal/store"
)

// RunMetrics records what one artifact regeneration cost the harness. All
// and RunAll attach it to Result.Metrics; `lscatter-bench -metrics out.json`
// serializes the collection so successive PRs accumulate a performance
// trajectory.
//
// Wall time is always exact. The allocation and cache counters are sampled
// from process-global state (runtime.ReadMemStats and the shared waveform
// cache), so with a single worker they attribute exactly, while under a
// concurrent pool the deltas of overlapping runners blur into each other —
// totals across the whole run remain meaningful either way.
type RunMetrics struct {
	// ID and Title identify the artifact.
	ID    string `json:"id"`
	Title string `json:"title"`
	// Seed is the derived per-artifact seed the runner actually received.
	Seed uint64 `json:"seed"`
	// Worker is the pool slot that ran the artifact (0 when sequential).
	Worker int `json:"worker"`
	// WallSeconds is the artifact's elapsed regeneration time.
	WallSeconds float64 `json:"wall_seconds"`
	// AllocBytes and Mallocs are heap-allocation deltas over the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// CacheHits/CacheMisses are waveform-cache deltas over the run; the
	// hit rate is their ratio.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Rows is the number of table rows the artifact produced.
	Rows int `json:"rows"`
	// Restored marks an artifact a resumed sweep read from its checkpoint
	// instead of computing. Its measured fields (Worker, WallSeconds,
	// AllocBytes, Mallocs and the cache counters) are zero: the checkpoint
	// holds the cold run's numbers, which this run did not spend.
	Restored bool `json:"restored,omitempty"`
}

// markRestored flags m as restored from a checkpoint and zeroes the fields
// that measured the run that computed it.
func (m *RunMetrics) markRestored() {
	*m = RunMetrics{ID: m.ID, Title: m.Title, Seed: m.Seed, Rows: m.Rows, Restored: true}
}

// runInstrumented executes one runner and attaches RunMetrics to its Result.
func runInstrumented(id string, run Runner, seed uint64, worker int) *Result {
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	cacheBefore := ltephy.SharedStats()
	start := time.Now()

	res := run(seed)

	wall := time.Since(start)
	cacheDelta := ltephy.SharedStats().Delta(cacheBefore)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	res.Metrics = &RunMetrics{
		ID:          id,
		Title:       res.Title,
		Seed:        seed,
		Worker:      worker,
		WallSeconds: wall.Seconds(),
		AllocBytes:  msAfter.TotalAlloc - msBefore.TotalAlloc,
		Mallocs:     msAfter.Mallocs - msBefore.Mallocs,
		CacheHits:   cacheDelta.Hits,
		CacheMisses: cacheDelta.Misses,
		Rows:        len(res.Rows),
	}
	return res
}

// CacheReport summarizes the shared waveform cache over a whole run.
type CacheReport struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// Report is the JSON document behind `lscatter-bench -metrics out.json`: the
// run configuration, end-to-end wall time, final cache state, and one
// RunMetrics entry per regenerated artifact in ID order.
type Report struct {
	// Seed is the master seed (per-artifact seeds derive from it).
	Seed uint64 `json:"seed"`
	// Workers is the pool size used (1 = sequential); for RunAll, PoolSize of
	// the requested count.
	Workers int `json:"workers"`
	// GoMaxProcs records the scheduler width the run had available.
	GoMaxProcs int `json:"gomaxprocs"`
	// WallSeconds is the end-to-end harness time, overlap included — under
	// a pool it is less than the sum of the per-artifact wall times.
	WallSeconds float64 `json:"wall_seconds"`
	// Cache is the shared waveform-cache state at the end of the run.
	Cache CacheReport `json:"cache"`
	// Artifacts holds the per-artifact metrics (skipped artifacts omitted).
	Artifacts []RunMetrics `json:"artifacts"`
	// RTF, when the run included `-rtf`, is the real-time-factor measurement
	// (see rtf.go and docs/PERFORMANCE.md).
	RTF *RTFReport `json:"rtf,omitempty"`
}

// BuildReport assembles a Report from instrumented results, typically the
// return value of RunAll. Results without metrics (or nil results from a
// cancelled run) are skipped.
func BuildReport(seed uint64, workers int, wall time.Duration, results []*Result) *Report {
	s := ltephy.SharedStats()
	rep := &Report{
		Seed:        seed,
		Workers:     workers,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		WallSeconds: wall.Seconds(),
		Cache: CacheReport{
			Hits:      s.Hits,
			Misses:    s.Misses,
			Evictions: s.Evictions,
			Entries:   s.Entries,
			Bytes:     s.Bytes,
			HitRate:   s.HitRate(),
		},
	}
	for _, r := range results {
		if r != nil && r.Metrics != nil {
			rep.Artifacts = append(rep.Artifacts, *r.Metrics)
		}
	}
	return rep
}

// WriteJSON serializes the report, indented for human diffing.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile atomically serializes the report to path (temp file, fsync,
// rename — the same helper the artifact store uses), so a crash mid-write
// can never leave a torn `-metrics` report: the file is either the previous
// complete report or the new one.
func (r *Report) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return store.WriteAtomic(path, buf.Bytes())
}
