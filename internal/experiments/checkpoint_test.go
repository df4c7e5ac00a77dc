package experiments

import (
	"context"
	"testing"

	"lscatter/internal/store"
)

func openStore(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointResumesExactly is the in-process resume contract: a store
// holding K of N artifacts yields exactly N−K computes and identical
// results.
func TestCheckpointResumesExactly(t *testing.T) {
	const n, k = 12, 5
	jobs := fakeJobs(n)
	dir := t.TempDir()

	// First pass: only the first K jobs, checkpointed.
	_, cs, err := runCheckpointed(context.Background(), jobs[:k], fakeRun, 1, openStore(t, dir), false)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Computed: k}) {
		t.Fatalf("cold stats: %+v", cs)
	}

	// The resumed sweep over the full batch, through a fresh store open.
	got, cs, err := runCheckpointed(context.Background(), jobs, fakeRun, 3, openStore(t, dir), true)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Computed: n - k, Restored: k}) {
		t.Fatalf("resume stats: %+v, want %d computed and %d restored", cs, n-k, k)
	}
	want, err := runJobs(context.Background(), jobs, fakeRun, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRenders(t, got, want)
}

// TestCheckpointColdNeverReads pins that without resume the store is
// write-only: a warm directory never short-circuits a cold sweep.
func TestCheckpointColdNeverReads(t *testing.T) {
	jobs := fakeJobs(4)
	st := openStore(t, t.TempDir())
	if _, _, err := runCheckpointed(context.Background(), jobs, fakeRun, 1, st, false); err != nil {
		t.Fatal(err)
	}
	_, cs, err := runCheckpointed(context.Background(), jobs, fakeRun, 1, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Computed: len(jobs)}) {
		t.Fatalf("cold pass over a warm store: %+v", cs)
	}
	if ds := st.Stats(); ds.Hits != 0 || ds.Misses != 0 {
		t.Fatalf("cold passes read the store: %+v", ds)
	}
}

// TestArtifactKeyIsStoreSafe pins the key rule every checkpoint file name
// derives from. The literal is the key artifact directories already on disk
// were written under: changing the namespace string or the hash would
// silently orphan them, so a change here must be deliberate.
func TestArtifactKeyIsStoreSafe(t *testing.T) {
	want := store.Key{SpecHash: "f5ee51394b2784911b98a19a407373e5ce879c29047b951c28e54107b43a8bc0", Seed: 7}
	if got := ArtifactKey("F23", 7); got != want {
		t.Fatalf("ArtifactKey(F23, 7) = %+v, want %+v", got, want)
	}
	k := ArtifactKey("F4c", 7)
	if len(k.SpecHash) != 64 {
		t.Fatalf("hash length %d, want 64", len(k.SpecHash))
	}
	for _, c := range k.SpecHash {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("non-hex key %q", k.SpecHash)
		}
	}
	if k == ArtifactKey("F4d", 7) {
		t.Fatal("distinct IDs collide")
	}
}

// TestRunAllCheckpointResume pins the registry-level resume contract: a
// sweep checkpointed into a durable store and then resumed from a fresh
// store open restores every artifact (zero recomputes) and renders
// byte-identically — Render output is the repository's determinism
// criterion, so equality here is equality of `-all` stdout.
func TestRunAllCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	const seed = 1
	dir := t.TempDir()
	n := len(IDs())

	first, cs, err := RunAllCheckpointed(context.Background(), seed, 0, openStore(t, dir), false)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Computed: n}) {
		t.Fatalf("cold sweep: %+v, want %d computed", cs, n)
	}

	// The restart: fresh store open over the same directory, resume on.
	second, cs, err := RunAllCheckpointed(context.Background(), seed, 4, openStore(t, dir), true)
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CheckpointStats{Restored: n}) {
		t.Fatalf("resumed sweep: %+v, want %d restored", cs, n)
	}
	requireSameRenders(t, second, first)
	// A restored artifact's metrics say so and carry none of the cold run's
	// measurements: the report of a resumed sweep describes that sweep.
	for i, res := range second {
		cold := first[i].Metrics
		if cold == nil || cold.Restored {
			t.Fatalf("cold %s metrics: %+v", first[i].ID, cold)
		}
		want := RunMetrics{ID: cold.ID, Title: cold.Title, Seed: cold.Seed, Rows: cold.Rows, Restored: true}
		if res.Metrics == nil || *res.Metrics != want {
			t.Fatalf("restored %s metrics: %+v, want %+v", res.ID, res.Metrics, want)
		}
	}
}
