package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file pin the durable artifact store's crash/corruption
// story: artifacts survive process boundaries byte-identically, and
// truncated, bit-flipped or zero-length files are quarantined and
// recomputed — never served. The multi-store tests pin the sharing
// story that lets a server and a sweep use one directory: a store adopts
// artifacts a sibling wrote into the same directory.

func testKey(seed uint64) Key {
	return Key{SpecHash: "0123456789abcdef", Seed: seed}
}

func openDisk(t *testing.T, dir string) *DiskStore {
	t.Helper()
	d, err := Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskStoreRoundTripAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"result":"the quick brown fox"}` + "\n")
	k := testKey(7)

	d1 := openDisk(t, dir)
	d1.Put(k, body)
	if got, ok := d1.Get(k); !ok || !bytes.Equal(got, body) {
		t.Fatalf("same-open Get = %q, %v", got, ok)
	}

	// A second open over the same directory — the restart — must serve the
	// identical bytes from the scanned file. A file that is not *.art, such
	// as the JSON index older store builds kept, is ignored.
	if err := os.WriteFile(filepath.Join(dir, "leftover.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDisk(t, dir)
	got, ok := d2.Get(k)
	if !ok {
		t.Fatal("restart lost the artifact")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("restart served different bytes: %q vs %q", got, body)
	}
	if st := d2.Stats(); st.Hits != 1 || st.Entries != 1 || st.Quarantined != 0 {
		t.Fatalf("restart stats: %+v", st)
	}
}

func TestDiskStoreMissIsAMiss(t *testing.T) {
	d := openDisk(t, t.TempDir())
	if _, ok := d.Get(testKey(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	if st := d.Stats(); st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDiskStoreAdoptsSiblingWrites is the multi-process sharing contract
// behind an lscatter-served instance and an lscatter-bench -artifact-dir
// sweep over one directory: an artifact Put through one open store is
// visible to another store already open over the same directory, without a
// reopen, and counts as an adopted hit.
func TestDiskStoreAdoptsSiblingWrites(t *testing.T) {
	dir := t.TempDir()
	a := openDisk(t, dir)
	b := openDisk(t, dir)

	body := []byte("written by sibling a\n")
	k := testKey(42)
	a.Put(k, body)

	got, ok := b.Get(k)
	if !ok {
		t.Fatal("sibling store did not adopt the artifact")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("adopted different bytes: %q vs %q", got, body)
	}
	st := b.Stats()
	if st.Adopted != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("adoption stats: %+v", st)
	}
	// A second Get serves from the adopted index entry, not another probe.
	if _, ok := b.Get(k); !ok {
		t.Fatal("adopted entry lost")
	}
	if st := b.Stats(); st.Adopted != 1 || st.Hits != 2 {
		t.Fatalf("post-adoption stats: %+v", st)
	}
}

// TestDiskStoreConcurrentSiblings drives several stores over one directory
// from concurrent goroutines — the in-process proxy for a server and a
// sweep writing one directory at once — and requires every body read back
// intact. Run under -race by `make race`.
func TestDiskStoreConcurrentSiblings(t *testing.T) {
	dir := t.TempDir()
	const stores, keys = 3, 16
	var wg sync.WaitGroup
	for s := 0; s < stores; s++ {
		d := openDisk(t, dir)
		wg.Add(1)
		go func(s int, d *DiskStore) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := Key{SpecHash: "abcdef0123456789", Seed: uint64(i)}
				body := []byte(fmt.Sprintf("body-%d\n", i))
				d.Put(k, body)
				got, ok := d.Get(k)
				if !ok || !bytes.Equal(got, body) {
					t.Errorf("store %d key %d: got %q, %v", s, i, got, ok)
					return
				}
			}
		}(s, d)
	}
	wg.Wait()
	// A fresh open sees every key exactly once, uncorrupted.
	d := openDisk(t, dir)
	if st := d.Stats(); st.Entries != keys || st.Quarantined != 0 {
		t.Fatalf("final scan: %+v", st)
	}
}

// corruptCase mutates one stored artifact file on disk between opens.
type corruptCase struct {
	name   string
	mutate func(t *testing.T, path string)
	// atStartup is true when the startup scan itself must quarantine the
	// file (size/header damage); false when the lazy checksum at Get does
	// (content damage invisible to the header).
	atStartup bool
}

func TestDiskStoreCorruptionRecovery(t *testing.T) {
	cases := []corruptCase{
		{"truncated", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"zero-length", func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"bit-flip-body", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40 // flip one bit inside the body
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"bit-flip-header", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[2] ^= 0x01 // damage the magic
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k := testKey(9)
			body := []byte(strings.Repeat("x", 256) + "\n")

			d1 := openDisk(t, dir)
			d1.Put(k, body)
			path := filepath.Join(dir, FileName(k))
			tc.mutate(t, path)

			var logged []string
			d2, err := Open(dir, 0, func(format string, args ...any) {
				logged = append(logged, format)
			})
			if err != nil {
				t.Fatalf("server must start over a corrupt store: %v", err)
			}
			if got, ok := d2.Get(k); ok {
				t.Fatalf("served a corrupt body: %q", got)
			}
			st := d2.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("quarantined %d files, want 1 (stats %+v)", st.Quarantined, st)
			}
			if tc.atStartup && st.Entries != 0 {
				t.Fatalf("startup scan kept the corrupt entry: %+v", st)
			}
			if len(logged) != 1 {
				t.Fatalf("logged %d lines, want exactly 1: %v", len(logged), logged)
			}
			// The evidence moved into quarantine/ and the canonical path is
			// free for a recompute.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still at canonical path: %v", err)
			}
			q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantine dir: %v entries, err %v", len(q), err)
			}
			// Recompute on demand: a fresh Put under the same key works and
			// round-trips.
			d2.Put(k, body)
			if got, ok := d2.Get(k); !ok || !bytes.Equal(got, body) {
				t.Fatalf("store unusable after quarantine: %q, %v", got, ok)
			}
		})
	}
}

// TestDiskStoreRestartEvictsOldestWrite pins the recency a reopened store
// starts from: file modification time, newest first, so a smaller budget
// evicts the oldest-written artifacts. Keys are written in file-name order,
// so a store that kept the scan's name order would evict the newest instead.
func TestDiskStoreRestartEvictsOldestWrite(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("a"), 1024)
	d1 := openDisk(t, dir)
	base := time.Now().Add(-time.Hour)
	for i, seed := range []uint64{0, 1, 2, 3, 4, 5} {
		d1.Put(testKey(seed), body)
		// Back-to-back writes can share a coarse file timestamp; pin one
		// second between them, as a sweep writing an artifact a second would.
		mtime := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, FileName(testKey(seed))), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}

	// Budget for roughly three artifacts (header ≈ 80 bytes each).
	d2, err := Open(dir, 3*1200, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Entries != 3 || st.Evictions != 3 {
		t.Fatalf("reopen under a smaller budget: %+v, want 3 entries and 3 evictions", st)
	}
	for _, seed := range []uint64{0, 1, 2} {
		if _, err := os.Stat(filepath.Join(dir, FileName(testKey(seed)))); !os.IsNotExist(err) {
			t.Fatalf("oldest-written seed %d survived the smaller budget: %v", seed, err)
		}
	}
	for _, seed := range []uint64{3, 4, 5} {
		if _, ok := d2.Get(testKey(seed)); !ok {
			t.Fatalf("newer seed %d was evicted before an older write", seed)
		}
	}
}

func TestDiskStoreByteBoundEviction(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("a"), 1024)
	// Budget for roughly three artifacts (header ≈ 80 bytes each).
	d, err := Open(dir, 3*1200, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 6; seed++ {
		d.Put(testKey(seed), body)
	}
	st := d.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a byte budget: %+v", st)
	}
	if st.Bytes > 3*1200 {
		t.Fatalf("bytes %d exceed the budget: %+v", st.Bytes, st)
	}
	// Oldest evicted, newest retained.
	if _, ok := d.Get(testKey(0)); ok {
		t.Fatal("oldest artifact survived past the budget")
	}
	if _, ok := d.Get(testKey(5)); !ok {
		t.Fatal("newest artifact was evicted")
	}
	// Evicted files are really gone from disk.
	ents, _ := os.ReadDir(dir)
	arts := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), artifactExt) {
			arts++
		}
	}
	if arts != st.Entries {
		t.Fatalf("%d files on disk, %d entries in store", arts, st.Entries)
	}
}

// TestWriteAtomicReplaces pins the helper the metrics reports and the
// artifact files share: the destination is either absent, the old content,
// or the complete new content — and a successful call leaves no temp files.
func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	if err := WriteAtomic(path, []byte("old\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte("new and longer\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new and longer\n" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory not clean after WriteAtomic: %d entries", len(ents))
	}
}

// FuzzArtifactDecode holds the never-panic line on the on-disk artifact
// format — the surface a crashed or hostile writer can hand the startup
// scan. Accepted artifacts must round-trip byte-exactly (decode is strict,
// encode is canonical).
func FuzzArtifactDecode(f *testing.F) {
	valid := encodeArtifact(testKey(3), []byte(`{"ok":true}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])           // truncated body
	f.Add(valid[:artifactHeaderSize])     // header only
	f.Add([]byte{})                       // zero-length
	f.Add([]byte("LSCATART"))             // bare magic
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // junk
	flip := append([]byte(nil), valid...)
	flip[len(flip)-2] ^= 0x01
	f.Add(flip) // checksum mismatch
	// JSON, such as a leftover index file from an older store layout.
	f.Add([]byte(`{"version":1,"entries":[{"spec_hash":"0123456789abcdef","seed":3,"file":"0123456789abcdef-0000000000000003.art","size":95}]}`))
	f.Add([]byte(`{"version":99,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"file":"../../etc/passwd.art"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		k, body, err := decodeArtifact(data)
		if err == nil {
			re := encodeArtifact(k, body)
			if !bytes.Equal(re, data) {
				t.Fatalf("artifact round-trip not canonical:\n%x\nvs\n%x", re, data)
			}
		}
	})
}
