package experiments

import (
	"context"
	"runtime"
	"sync"
)

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

// job is one artifact of a sweep: its ID plus the seed its runner receives
// verbatim. The pair fully determines the Result's rows.
type job struct {
	id   string
	seed uint64
}

// sweepJobs lists the registry in canonical ID order, each artifact carrying
// its DeriveSeed seed.
func sweepJobs(seed uint64) []job {
	ids := IDs()
	jobs := make([]job, len(ids))
	for i, id := range ids {
		jobs[i] = job{id: id, seed: DeriveSeed(seed, id)}
	}
	return jobs
}

// runFunc computes one job on a pool slot. The slot is recorded in
// RunMetrics and never influences the Result.
type runFunc func(j job, worker int) (*Result, error)

// runRegistry is the runFunc every sweep bottoms out in: the artifact's
// registered runner, instrumented.
func runRegistry(j job, worker int) (*Result, error) {
	return runInstrumented(j.id, registry[j.id], j.seed, worker), nil
}

// PoolSize is the number of workers RunAll runs for a requested count:
// NumCPU when workers <= 0, and never more than the registry holds. It is
// RunOrdered's rule applied to the registry.
func PoolSize(workers int) int { return poolSize(workers, len(registry)) }

func poolSize(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, jobs)
}

// RunOrdered calls fn(i, worker) for every i in [0, n) on poolSize(workers,
// n) goroutines — NumCPU when workers <= 0, never more than n — and returns
// the results in index order, whatever the completion order. worker is the
// goroutine's slot in [0, poolSize), for attribution only.
//
// If ctx is cancelled, RunOrdered stops dispatching, waits for in-flight
// calls and returns the partial results (unrun indices hold T's zero value)
// alongside ctx.Err(). If a call fails, it stops dispatching and returns the
// partial results with the first error; that index holds the zero value.
func RunOrdered[T any](ctx context.Context, n, workers int, fn func(i, worker int) (T, error)) ([]T, error) {
	results := make([]T, n)
	feed := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var firstErr error

	var wg sync.WaitGroup
	for w := 0; w < poolSize(workers, n); w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range feed {
				res, err := fn(i, worker)
				if err != nil {
					stopOnce.Do(func() { firstErr = err; close(stop) })
					continue
				}
				results[i] = res
			}
		}(w)
	}

dispatch:
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		case <-stop:
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}

// RunAll regenerates every registered artifact on a pool of PoolSize(workers)
// goroutines and returns the results in ID order, each with RunMetrics
// attached. RunAllCheckpointed is the same sweep with a durable checkpoint.
//
// Determinism is unconditional: for any worker count, artifact id runs with
// DeriveSeed(seed, id) and runners share no mutable state, so Result.Rows
// are byte-identical to All(seed). If ctx is cancelled, RunAll stops
// dispatching, waits for in-flight runners, and returns the partial results
// (unrun artifacts are nil) alongside ctx.Err().
func RunAll(ctx context.Context, seed uint64, workers int) ([]*Result, error) {
	jobs := sweepJobs(seed)
	return RunOrdered(ctx, len(jobs), workers, func(i, worker int) (*Result, error) {
		return runRegistry(jobs[i], worker)
	})
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
