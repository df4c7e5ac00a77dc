package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"lscatter/internal/store"
)

// ArtifactKey maps an artifact ID and the seed its runner receives to the
// store key its checkpoint is filed under: a SHA-256 of the namespaced ID
// plus the seed verbatim. A cold sweep and a later resume over the same
// artifact directory agree on keys by construction, with no coordination.
// The namespace string is part of every checkpoint file name: changing it
// orphans existing artifact directories.
func ArtifactKey(id string, seed uint64) store.Key {
	sum := sha256.Sum256([]byte("lscatter-bench-artifact:" + id))
	return store.Key{SpecHash: hex.EncodeToString(sum[:]), Seed: seed}
}

// CheckpointStats counts how a checkpointed sweep produced its artifacts.
type CheckpointStats struct {
	Computed, Restored int
}

// RunAllCheckpointed is RunAll with a durable checkpoint in st: every
// artifact it computes is recorded under its ArtifactKey, and — with resume
// — an artifact st already holds is restored instead of recomputed, so a
// sweep killed after K of N artifacts recomputes exactly N−K. Without resume
// the store is write-only: a cold sweep never serves stale state, whatever
// the directory holds.
//
// Restoring is indistinguishable from recomputing: runners are pure in
// their seed, and every field of a Result that reaches Render is a string
// slice, so the JSON checkpoint round-trips it exactly and the rendered
// tables are byte-identical. A failed computation is never checkpointed.
func RunAllCheckpointed(ctx context.Context, seed uint64, workers int, st *store.DiskStore, resume bool) ([]*Result, CheckpointStats, error) {
	return runCheckpointed(ctx, sweepJobs(seed), runRegistry, workers, st, resume)
}

// runCheckpointed runs jobs through run on RunOrdered's pool, checkpointing
// into st.
func runCheckpointed(ctx context.Context, jobs []job, run runFunc, workers int, st *store.DiskStore, resume bool) ([]*Result, CheckpointStats, error) {
	var computed, restored atomic.Int64
	results, err := RunOrdered(ctx, len(jobs), workers, func(i, worker int) (*Result, error) {
		j := jobs[i]
		k := ArtifactKey(j.id, j.seed)
		if resume {
			if body, ok := st.Get(k); ok {
				var res Result
				if err := json.Unmarshal(body, &res); err != nil {
					return nil, fmt.Errorf("experiments: decode artifact %s: %w", j.id, err)
				}
				if res.Metrics != nil {
					res.Metrics.markRestored()
				}
				restored.Add(1)
				return &res, nil
			}
		}
		res, err := run(j, worker)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		st.Put(k, body)
		computed.Add(1)
		return res, nil
	})
	return results, CheckpointStats{Computed: int(computed.Load()), Restored: int(restored.Load())}, err
}
