package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lscatter/internal/store"
)

// The tests in this file pin the manager-level halves of the durability
// story over the shared internal/store layer: warm restarts serve from disk
// with zero recompute, and corruption falls through to a fresh computation.
// The store-level crash/corruption tests live in internal/store.

// TestManagerRestartWarmCache is the in-process crash/restart e2e at the
// manager level: run a spec, shut down, build a fresh manager over the same
// artifact dir, and require the re-fetched body byte-identical with zero
// recompute and an observable disk hit.
func TestManagerRestartWarmCache(t *testing.T) {
	dir := t.TempDir()
	spec := normalized(t, 6, 12345)

	m1 := newManager(t, Options{Workers: 2, ArtifactDir: dir})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Finished()
	body1, ok := j1.Results()
	if !ok {
		t.Fatalf("first run did not finish done: %+v", j1.Status())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The restart: a brand-new manager, cold memory, warm disk.
	m2 := newManager(t, Options{Workers: 2, ArtifactDir: dir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m2.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	j2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Finished()
	st := j2.Status()
	if st.State != Done || !st.CacheHit {
		t.Fatalf("restarted submission not served from disk: %+v", st)
	}
	body2, _ := j2.Results()
	if !bytes.Equal(body1, body2) {
		t.Fatalf("restart served different bytes:\n%s\nvs\n%s", body1, body2)
	}
	ctr := m2.Counters()
	if ctr.DiskHits != 1 {
		t.Fatalf("disk hits %d, want 1: %+v", ctr.DiskHits, ctr)
	}
	if ctr.Computed != 0 || ctr.Started != 0 {
		t.Fatalf("restart recomputed: %+v", ctr)
	}
	// The promoted body now also answers from memory.
	j3, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Finished()
	if got := m2.Counters(); got.CacheHits != 1 {
		t.Fatalf("promotion did not warm the memory LRU: %+v", got)
	}
}

// TestManagerRecomputesAfterCorruption covers the serving-level half of the
// corruption story: a damaged artifact is quarantined and the submission
// falls through to a fresh, correct computation.
func TestManagerRecomputesAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	spec := normalized(t, 6, 777)

	m1 := newManager(t, Options{Workers: 2, ArtifactDir: dir})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Finished()
	body1, _ := j1.Results()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Flip a bit in the stored body.
	key := store.Key{SpecHash: spec.Hash(), Seed: spec.Seed}
	path := filepath.Join(dir, store.FileName(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, Options{Workers: 2, ArtifactDir: dir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m2.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	j2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Finished()
	st := j2.Status()
	if st.State != Done {
		t.Fatalf("recompute ended %s: %s", st.State, st.Error)
	}
	if st.CacheHit {
		t.Fatal("corrupt artifact was served as a cache hit")
	}
	body2, _ := j2.Results()
	if !bytes.Equal(body1, body2) {
		t.Fatal("recompute after corruption produced different bytes")
	}
	ctr := m2.Counters()
	if ctr.Computed != 1 || ctr.DiskHits != 0 {
		t.Fatalf("corruption path counters: %+v", ctr)
	}
	if ds := m2.Disk().Stats(); ds.Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1: %+v", ds.Quarantined, ds)
	}
}

// TestManagerProbesDiskOncePerComputedRun pins the write-through path: each
// fresh spec costs exactly one disk probe (Submit's) and one disk write, and
// the body lands at the store's file name for the spec's key — the layout
// directories written by earlier versions already use.
func TestManagerProbesDiskOncePerComputedRun(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	m := newManager(t, Options{Workers: 2, ArtifactDir: dir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < n; i++ {
		spec := normalized(t, 2, uint64(900+i))
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Finished()
		body, ok := j.Results()
		if !ok {
			t.Fatalf("run %d did not finish done: %+v", i, j.Status())
		}
		key := store.Key{SpecHash: spec.Hash(), Seed: spec.Seed}
		onDisk, err := os.ReadFile(filepath.Join(dir, store.FileName(key)))
		if err != nil {
			t.Fatalf("run %d: body not at its key's file name: %v", i, err)
		}
		if !bytes.Contains(onDisk, body) {
			t.Fatalf("run %d: stored file does not hold the served body", i)
		}
	}
	if ctr := m.Counters(); ctr.Computed != n {
		t.Fatalf("computed %d, want %d: %+v", ctr.Computed, n, ctr)
	}
	if ds := m.Disk().Stats(); ds.Misses != n || ds.Puts != n {
		t.Fatalf("disk misses %d puts %d, want %d each: %+v", ds.Misses, ds.Puts, n, ds)
	}
}
