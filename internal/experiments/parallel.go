package experiments

import "context"

// DeriveSeed maps the harness master seed to the per-artifact seed used by
// All and RunAll: the master seed XORed with an FNV-1a hash of the artifact
// ID. Every artifact therefore draws from a decorrelated random stream that
// depends only on (master seed, ID) — never on which worker ran it, in what
// order, or alongside what else — which is what makes RunAll's output
// bit-identical to the sequential path at any worker count, and artifact
// bytes safe to checkpoint and restore.
func DeriveSeed(seed uint64, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return seed ^ h
}

// RunAll regenerates every registered artifact using a pool of workers and
// returns the results in ID order, each with RunMetrics attached. It is the
// thin adapter over the execution layer: ExecRunner submitted
// in-process through RunAllOn — the same stack `lscatter-bench` extends
// with checkpointing (-artifact-dir/-resume).
//
// workers <= 0 selects runtime.NumCPU(); the pool is never larger than the
// registry. Determinism is unconditional: for any worker count and any
// executor, artifact id runs with DeriveSeed(seed, id) and runners share no
// mutable state, so Result.Rows are byte-identical to All(seed). If ctx is
// cancelled, RunAll stops dispatching, waits for in-flight runners, and
// returns the partial results (unrun artifacts are nil) alongside ctx.Err().
func RunAll(ctx context.Context, seed uint64, workers int) ([]*Result, error) {
	return RunAllOn(ctx, ExecRunner(), seed, workers)
}

// RunOne regenerates a single artifact with the seed taken verbatim (no
// DeriveSeed, matching the historical `lscatter-bench -id` behavior) and
// attaches RunMetrics. The second return is false for an unknown ID.
func RunOne(id string, seed uint64) (*Result, bool) {
	r, ok := registry[id]
	if !ok {
		return nil, false
	}
	return runInstrumented(id, r, seed, 0), true
}
