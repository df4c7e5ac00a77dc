package exec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"lscatter/internal/store"
)

// pureRun is the synthetic deterministic runner the executor tests share:
// the artifact bytes depend only on (ID, seed), like every real runner in
// the repository.
func pureRun(ctx context.Context, job Job) ([]byte, error) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", job.ID, job.Seed)))
	return []byte(fmt.Sprintf("artifact %s seed %d digest %x\n", job.ID, job.Seed, sum[:8])), nil
}

func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("J%02d", i), Seed: uint64(1000 + i)}
	}
	return jobs
}

// TestAllDeterministicAcrossWorkerCounts pins the pool's core contract:
// identical bytes in identical order at any worker count.
func TestAllDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs(17)
	want, err := All(context.Background(), RunFunc(pureRun), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 17, 99} {
		got, err := All(context.Background(), RunFunc(pureRun), jobs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range jobs {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d job %s: %q vs %q", workers, jobs[i].ID, got[i], want[i])
			}
		}
	}
}

func TestAllStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	run := func(ctx context.Context, job Job) ([]byte, error) {
		if ran.Add(1) == 3 {
			cancel()
		}
		return pureRun(ctx, job)
	}
	results, err := All(ctx, RunFunc(run), testJobs(64), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	nils := 0
	for _, r := range results {
		if r == nil {
			nils++
		}
	}
	if nils == 0 {
		t.Fatal("cancelled run completed every job")
	}
}

func TestAllStopsOnSubmitError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	run := func(ctx context.Context, job Job) ([]byte, error) {
		if job.ID == "J03" {
			return nil, boom
		}
		ran.Add(1)
		return pureRun(ctx, job)
	}
	results, err := All(context.Background(), RunFunc(run), testJobs(64), 1)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if results[3] != nil {
		t.Fatal("failed job has a result")
	}
	if int(ran.Load()) >= 63 {
		t.Fatal("pool did not stop dispatching after the error")
	}
}

// TestCheckpointedResumesExactly is the in-process resume contract: a store
// holding K of N artifacts yields exactly N−K computes and byte-identical
// results.
func TestCheckpointedResumesExactly(t *testing.T) {
	const n, k = 12, 5
	jobs := testJobs(n)
	dir := t.TempDir()

	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Checkpointed{Inner: RunFunc(pureRun), Store: st}
	// First pass: only the first K jobs, checkpointed.
	if _, err := All(context.Background(), cold, jobs[:k], 1); err != nil {
		t.Fatal(err)
	}
	if computed, restored := cold.Stats(); computed != k || restored != 0 {
		t.Fatalf("cold stats: computed %d restored %d", computed, restored)
	}

	// The resumed sweep over the full batch, through a fresh store open.
	st2, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &Checkpointed{Inner: RunFunc(pureRun), Store: st2, Resume: true}
	got, err := All(context.Background(), resumed, jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	computed, restored := resumed.Stats()
	if computed != n-k || restored != k {
		t.Fatalf("resume stats: computed %d restored %d, want %d and %d", computed, restored, n-k, k)
	}
	want, err := All(context.Background(), RunFunc(pureRun), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("resumed job %s differs: %q vs %q", jobs[i].ID, got[i], want[i])
		}
	}
}

// TestCheckpointedColdIgnoresStore pins that without Resume the store is
// write-only: a warm directory never short-circuits a cold sweep.
func TestCheckpointedColdIgnoresStore(t *testing.T) {
	jobs := testJobs(4)
	dir := t.TempDir()
	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	warm := &Checkpointed{Inner: RunFunc(pureRun), Store: st}
	if _, err := All(context.Background(), warm, jobs, 1); err != nil {
		t.Fatal(err)
	}
	cold := &Checkpointed{Inner: RunFunc(pureRun), Store: st}
	if _, err := All(context.Background(), cold, jobs, 1); err != nil {
		t.Fatal(err)
	}
	if computed, restored := cold.Stats(); computed != uint64(len(jobs)) || restored != 0 {
		t.Fatalf("cold pass over warm store: computed %d restored %d", computed, restored)
	}
}

// TestArtifactKeyIsStoreSafe pins the key rule every checkpoint file name
// derives from. The literal is the key artifact directories already on disk
// were written under: changing the namespace string or the hash would
// silently orphan them, so a change here must be deliberate.
func TestArtifactKeyIsStoreSafe(t *testing.T) {
	want := store.Key{SpecHash: "f5ee51394b2784911b98a19a407373e5ce879c29047b951c28e54107b43a8bc0", Seed: 7}
	if got := ArtifactKey(Job{ID: "F23", Seed: 7}); got != want {
		t.Fatalf("ArtifactKey(F23, 7) = %+v, want %+v", got, want)
	}
	k := ArtifactKey(Job{ID: "F4c", Seed: 7})
	if len(k.SpecHash) != 64 {
		t.Fatalf("hash length %d, want 64", len(k.SpecHash))
	}
	for _, c := range k.SpecHash {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("non-hex key %q", k.SpecHash)
		}
	}
	if k != ArtifactKey(Job{ID: "F4c", Seed: 7}) {
		t.Fatal("key not stable")
	}
	if k == ArtifactKey(Job{ID: "F4d", Seed: 7}) {
		t.Fatal("distinct IDs collide")
	}
}
