package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Sharded fans jobs out to lscatter-worker HTTP processes. Each job is
// hash-sharded by its ID onto one worker, so a sweep's jobs partition into
// disjoint per-worker subsets — zero duplicate computes when every worker is
// alive. When a worker dies (transport error: refused connection, reset,
// mid-response EOF), it is marked dead and the job re-dispatches to the next
// worker in the ring, so a sweep survives worker loss at the cost of a
// rebalanced shard. Workers sharing one artifact directory (the intended
// deployment) also deduplicate any re-dispatch races through the store.
//
// Determinism is untouched by sharding: the job carries its seed, every
// worker runs the same pure runner, and the bytes on the wire are the bytes
// the in-process RunFunc would have produced.
type Sharded struct {
	workers []string
	client  *http.Client
	dead    []atomic.Bool

	redispatched atomic.Uint64
}

// NewSharded builds a sharded executor over worker base URLs (e.g.
// "http://127.0.0.1:9301"). client nil selects a default with a generous
// per-job timeout.
func NewSharded(workers []string, client *http.Client) *Sharded {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Minute}
	}
	trimmed := make([]string, len(workers))
	for i, w := range workers {
		trimmed[i] = strings.TrimRight(w, "/")
	}
	return &Sharded{
		workers: trimmed,
		client:  client,
		dead:    make([]atomic.Bool, len(workers)),
	}
}

// shardOf maps a job ID to its home worker: FNV-1a over the ID, mod the
// ring size. Stable across processes, so every participant agrees on the
// partition without coordination.
func shardOf(id string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Redispatched reports how many submissions had to leave their home shard
// because a worker died.
func (s *Sharded) Redispatched() uint64 { return s.redispatched.Load() }

// Submit posts the job to its home worker, walking the ring past dead
// workers. A worker-side computation error (HTTP error status) propagates
// to the caller — rerunning a deterministic failure elsewhere cannot
// succeed — while transport failures mark the worker dead and re-dispatch.
func (s *Sharded) Submit(ctx context.Context, job Job) ([]byte, error) {
	n := len(s.workers)
	if n == 0 {
		return nil, fmt.Errorf("exec: sharded executor has no workers")
	}
	home := shardOf(job.ID, n)
	var lastErr error
	for i := 0; i < n; i++ {
		w := (home + i) % n
		if s.dead[w].Load() {
			continue
		}
		if i > 0 {
			s.redispatched.Add(1)
		}
		body, err, transport := s.post(ctx, s.workers[w], job)
		if err == nil {
			return body, nil
		}
		if !transport {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.dead[w].Store(true)
		lastErr = err
	}
	return nil, fmt.Errorf("exec: every worker failed for job %s: %w", job.ID, lastErr)
}

// post performs one worker round-trip. The third return distinguishes
// transport failures (retry elsewhere) from definitive worker answers.
func (s *Sharded) post(ctx context.Context, base string, job Job) ([]byte, error, bool) {
	payload, err := json.Marshal(job)
	if err != nil {
		return nil, err, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return nil, err, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("exec: worker %s: %w", base, err), true
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// The worker died mid-response; the partial body is garbage.
		return nil, fmt.Errorf("exec: worker %s: %w", base, err), true
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("exec: worker %s: %s: %s", base, resp.Status, strings.TrimSpace(string(body))), false
	}
	return body, nil, false
}
