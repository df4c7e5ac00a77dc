package main

import (
	"context"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lscatter/internal/experiments"
	"lscatter/internal/ltephy"
)

// sweepSeeds are the master seeds paper-sweep draws from: run seed n sweeps
// with sweepSeeds[(n+i) % len] on its i-th pass. Seed 1 is lscatter-bench's
// default; the others are held out from it. Each has a recorded output.
var sweepSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

func sweepSeedFor(runSeed uint64, pass int) int {
	return int((runSeed + uint64(pass)) % uint64(len(sweepSeeds)))
}

// renderDigest is the sha256 of one artifact's rendered table.
func renderDigest(r *experiments.Result) string {
	h := sha256.Sum256([]byte(r.Render()))
	return hex.EncodeToString(h[:])
}

// stdoutMD5 is the md5 of the results exactly as `lscatter-bench -all`
// prints them.
func stdoutMD5(res []*experiments.Result) string {
	h := md5.New()
	for _, r := range res {
		h.Write([]byte(r.Render()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkSweep counts the artifacts whose rendered table differs from the
// recording (a missing artifact counts as wrong), and checks the whole
// output digest.
func checkSweep(res []*experiments.Result, rec sweepRecord, out *outcome) {
	ids := experiments.IDs()
	out.attempted += len(ids)
	if len(res) != len(ids) {
		out.failed += len(ids)
		out.fail("sweep seed %d returned %d results for %d artifacts", rec.Seed, len(res), len(ids))
		return
	}
	for i, r := range res {
		if r == nil || r.ID != ids[i] || renderDigest(r) != rec.Artifacts[ids[i]] {
			out.failed++
		}
	}
	if got := stdoutMD5(res); got != rec.StdoutMD5 {
		out.fail("sweep seed %d: output md5 %s, recorded %s", rec.Seed, got, rec.StdoutMD5)
	}
}

// coldStart puts the process in the state a fresh `lscatter-bench -all`
// starts in: an empty waveform cache and no garbage from an earlier sweep.
func coldStart() {
	ltephy.SharedCache.Reset()
	runtime.GC()
}

// runSweep is paper-sweep untraced: repeated cold experiments.RunAll sweeps
// on one worker, the researcher's `lscatter-bench -all`. Each artifact's
// wall is the median over the run's sweeps, so one slow stretch of the
// machine does not move the sweep's figures.
func runSweep(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	walls := map[string][]float64{}
	synthesizes := map[string]bool{}
	var lookups []float64
	deadline := time.Duration(e.opts.seconds) * time.Second
	start := time.Now()
	sweeps := 0
	for ; sweeps == 0 || time.Since(start) < deadline; sweeps++ {
		rec := sweepRecords[sweepSeedFor(e.opts.seed, sweeps)]
		coldStart()
		c0 := ltephy.SharedStats()
		res, err := experiments.RunAll(ctx, rec.Seed, 1)
		if err != nil {
			return nil, fmt.Errorf("sweep seed %d: %w", rec.Seed, err)
		}
		c := ltephy.SharedStats().Delta(c0)
		checkSweep(res, rec, out)
		lookups = append(lookups, float64(c.Hits+c.Misses))
		for _, r := range res {
			if r == nil || r.Metrics == nil {
				continue
			}
			walls[r.ID] = append(walls[r.ID], r.Metrics.WallSeconds)
			// Artifacts that synthesized a new waveform "computed"; the rest
			// were answered in closed form or from the waveform cache.
			synthesizes[r.ID] = synthesizes[r.ID] || r.Metrics.CacheMisses > 0
		}
	}
	// The latency percentiles pool every artifact run of every sweep, as
	// served-mix pools every job: a percentile over one median wall per
	// artifact has 12 samples, and its middle falls in the gap between the
	// ~100 ms and ~150 ms waveform artifacts, so it jumps between them.
	var total float64
	var runLat, hitLat []float64
	for id, w := range walls {
		total += median(w)
		if synthesizes[id] {
			runLat = append(runLat, w...)
		} else {
			hitLat = append(hitLat, w...)
		}
	}
	n := fmt.Sprintf("%d sweeps; sum of per-artifact medians", sweeps)
	out.add("sweep_s", "s", total, n)
	out.add("link_sim_s_per_s", "s/s", median(lookups)*ltephy.SubframeDuration/total, n+"; modulated LTE subframes x 1 ms per host second")
	out.add("served_jobs_per_s", "1/s", float64(len(walls))/total, n+"; artifacts per second")
	runNote := fmt.Sprintf("n=%d runs of waveform artifacts over %d sweeps", len(runLat), sweeps)
	out.add("served_run_p50_ms", "ms", quantile(ms(runLat), 0.5), runNote)
	out.add("served_run_p90_ms", "ms", quantile(ms(runLat), 0.9), runNote)
	out.add("served_hit_p90_ms", "ms", quantile(ms(hitLat), 0.9), fmt.Sprintf("n=%d runs of artifacts without a new waveform over %d sweeps", len(hitLat), sweeps))
	return out, nil
}

// sweepGroups maps artifact IDs to the per-layer metric their time lands in.
var sweepGroups = map[string]string{
	"F32": "experiments.F32_s",
	"A3":  "experiments.A3_s",
	"F31": "experiments.F31_s",
	"F16": "experiments.diurnal_s",
	"F21": "experiments.diurnal_s",
	"F26": "experiments.diurnal_s",
}

// runSweepTraced is paper-sweep traced: one untraced cold RunAll as the
// overhead reference, then one cold sweep of experiments.RunOne calls in
// RunAll order with DeriveSeed seeds, each call a span.
func runSweepTraced(ctx context.Context, e *env, tr *tracer) (*outcome, error) {
	out := &outcome{}
	rec := sweepRecords[sweepSeedFor(e.opts.seed, 0)]

	coldStart()
	t0 := time.Now()
	res, err := experiments.RunAll(ctx, rec.Seed, 1)
	untraced := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	checkSweep(res, rec, out)

	coldStart()
	c0 := ltephy.SharedStats()
	g0 := readGoStats()
	root := tr.begin("sweep", -1, 0)
	res = res[:0]
	for i, id := range experiments.IDs() {
		s := tr.begin("experiments."+id, root, i)
		r, ok := experiments.RunOne(id, experiments.DeriveSeed(rec.Seed, id))
		tr.end(s)
		if !ok {
			return nil, fmt.Errorf("artifact %s vanished from the registry", id)
		}
		res = append(res, r)
	}
	checkSweep(res, rec, out)
	tr.end(root)
	g := readGoStats().sub(g0)
	c := ltephy.SharedStats().Delta(c0)

	self, wall, _ := tr.selfTimes()
	groups := map[string]float64{}
	for name, s := range self {
		id, ok := strings.CutPrefix(name, "experiments.")
		if !ok {
			continue
		}
		group, named := sweepGroups[id]
		if !named {
			group = "experiments.other_s"
		}
		groups[group] += s
	}
	for _, name := range []string{"experiments.F32_s", "experiments.A3_s", "experiments.F31_s", "experiments.diurnal_s", "experiments.other_s"} {
		out.add(name, "s", groups[name], "one traced sweep")
	}
	out.add("ltephy.cache_hits", "count", float64(c.Hits), "one sweep")
	out.add("ltephy.cache_misses", "count", float64(c.Misses), "one sweep")
	out.add("ltephy.cache_evictions", "count", float64(c.Evictions), "one sweep")
	out.addGo(g, 1, "sweep")
	out.addCoverage(tr)
	out.add("bench.trace_overhead_ratio", "ratio", ratio(wall, untraced),
		fmt.Sprintf("traced %.3f s / untraced %.3f s", wall, untraced))
	return out, nil
}
