// Package exec is the execution layer under the artifact registry:
// lscatter-bench sweeps submit registry jobs through one Executor interface
// and persist results through one content-addressed store (internal/store).
//
// An Executor turns a Job — a stable identifier plus a seed — into artifact
// bytes. Two implementations compose:
//
//   - RunFunc runs itself in-process, the way http.HandlerFunc serves
//     itself. It is the deterministic leaf Checkpointed bottoms out in.
//   - Checkpointed wraps any executor with a durable store: completed
//     artifacts are recorded, and (in resume mode) artifacts already in the
//     store are returned without recompute, so a killed sweep restarted
//     over the same directory recomputes only what is missing.
//
// The fan-out helper All runs a batch of jobs on a bounded worker pool and
// returns artifacts in job order. Determinism is the package's contract:
// jobs carry their own seeds, RunFuncs are pure in (job, seed), and no
// executor or pool shape may change a single output byte — which is exactly
// the property that makes artifacts safe to checkpoint and restore. See the
// execution-layer section of docs/ARCHITECTURE.md.
package exec

import (
	"context"
	"runtime"
	"sync"
)

// Job is one unit of work: a stable artifact identifier plus the seed the
// runner must use verbatim. The pair fully determines the artifact bytes —
// every runner behind an Executor is pure — so computing a Job and
// restoring its checkpoint give identical results.
type Job struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
}

// Executor turns a submitted job into its artifact bytes. Implementations
// must be safe for concurrent Submit calls.
type Executor interface {
	Submit(ctx context.Context, job Job) ([]byte, error)
}

// RunFunc computes one job's artifact bytes. It must be deterministic in
// the job (same ID and seed → same bytes) and honor ctx cancellation.
type RunFunc func(ctx context.Context, job Job) ([]byte, error)

// Submit makes a RunFunc the leaf Executor: it runs f in-process unless ctx
// is already cancelled.
func (f RunFunc) Submit(ctx context.Context, job Job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f(ctx, job)
}

// workerCtxKey carries the pool slot All assigned to a Submit call, for
// metrics attribution only — it never influences artifact bytes.
type workerCtxKey struct{}

// WithWorker tags ctx with a pool slot index.
func WithWorker(ctx context.Context, worker int) context.Context {
	return context.WithValue(ctx, workerCtxKey{}, worker)
}

// Worker returns the pool slot tagged by WithWorker, or 0.
func Worker(ctx context.Context) int {
	if w, ok := ctx.Value(workerCtxKey{}).(int); ok {
		return w
	}
	return 0
}

// All submits every job through the executor on a pool of workers and
// returns the artifacts in job order. workers <= 0 selects NumCPU; the pool
// is never larger than the batch. Determinism is unconditional: each job
// carries its own seed and executors share no mutable state that reaches
// the output, so the returned bytes are identical at any worker count.
//
// If ctx is cancelled, All stops dispatching, waits for in-flight jobs and
// returns the partial results (unrun jobs are nil) alongside ctx.Err(). If
// a Submit fails, All stops dispatching and returns the partial results
// with the first error; that job's slot is nil.
func All(ctx context.Context, ex Executor, jobs []Job, workers int) ([][]byte, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([][]byte, len(jobs))
	feedCh := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var mu sync.Mutex
	var firstErr error

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range feedCh {
				out, err := ex.Submit(WithWorker(ctx, worker), jobs[idx])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stopOnce.Do(func() { close(stop) })
					continue
				}
				results[idx] = out
			}
		}(w)
	}

feed:
	for idx := range jobs {
		select {
		case feedCh <- idx:
		case <-ctx.Done():
			break feed
		case <-stop:
			break feed
		}
	}
	close(feedCh)
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}
