package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The on-disk artifact format: one file per key, a fixed binary header
// followed by the stored body. The header carries the key, the body length
// and a SHA-256 of the body, so a truncated, bit-flipped or zero-length file
// is detected on read instead of being served. The layout (all integers
// little-endian):
//
//	magic    [8]byte  "LSCATART"
//	version  uint32   1
//	hashLen  uint32   length of the spec-hash string (lowercase hex)
//	hash     [hashLen]byte
//	seed     uint64
//	bodyLen  uint64
//	checksum [32]byte SHA-256 of the body
//	body     [bodyLen]byte
//
// decodeArtifact is strict — any deviation (wrong magic, trailing bytes,
// checksum mismatch) is an error — so encode(decode(b)) == b for every
// accepted b; FuzzArtifactDecode pins that round-trip.
const (
	artifactMagic   = "LSCATART"
	artifactVersion = 1
	artifactExt     = ".art"
	quarantineDir   = "quarantine"
	maxHashLen      = 64
)

// artifactHeaderSize is the fixed part of the header, before the
// variable-length hash: magic + version + hashLen.
const artifactHeaderSize = 8 + 4 + 4

// encodeArtifact serializes one artifact to its on-disk byte form.
func encodeArtifact(k Key, body []byte) []byte {
	sum := sha256.Sum256(body)
	buf := make([]byte, 0, artifactHeaderSize+len(k.SpecHash)+8+8+32+len(body))
	buf = append(buf, artifactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, artifactVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.SpecHash)))
	buf = append(buf, k.SpecHash...)
	buf = binary.LittleEndian.AppendUint64(buf, k.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body)))
	buf = append(buf, sum[:]...)
	buf = append(buf, body...)
	return buf
}

// errCorruptArtifact wraps every decode failure so callers can treat
// "quarantine this file" as one condition.
var errCorruptArtifact = errors.New("corrupt artifact")

// decodeArtifact parses and fully verifies one on-disk artifact. It never
// panics on arbitrary input and accepts exactly the bytes encodeArtifact
// produces: any truncation, extension, field corruption or checksum mismatch
// returns an error.
func decodeArtifact(data []byte) (Key, []byte, error) {
	fail := func(format string, args ...any) (Key, []byte, error) {
		return Key{}, nil, fmt.Errorf("%w: %s", errCorruptArtifact, fmt.Sprintf(format, args...))
	}
	if len(data) < artifactHeaderSize {
		return fail("short header (%d bytes)", len(data))
	}
	if string(data[:8]) != artifactMagic {
		return fail("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != artifactVersion {
		return fail("unknown version %d", v)
	}
	hashLen := binary.LittleEndian.Uint32(data[12:16])
	if hashLen == 0 || hashLen > maxHashLen {
		return fail("hash length %d out of range", hashLen)
	}
	rest := data[artifactHeaderSize:]
	if uint64(len(rest)) < uint64(hashLen)+8+8+32 {
		return fail("truncated header")
	}
	hash := string(rest[:hashLen])
	for _, c := range hash {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return fail("non-hex spec hash")
		}
	}
	rest = rest[hashLen:]
	seed := binary.LittleEndian.Uint64(rest[:8])
	bodyLen := binary.LittleEndian.Uint64(rest[8:16])
	sum := rest[16:48]
	body := rest[48:]
	if uint64(len(body)) != bodyLen {
		return fail("body length %d does not match header claim %d", len(body), bodyLen)
	}
	got := sha256.Sum256(body)
	if !bytes.Equal(got[:], sum) {
		return fail("body checksum mismatch")
	}
	return Key{SpecHash: hash, Seed: seed}, body, nil
}

// DiskStore is the durable content-addressed artifact store: artifacts are
// written through on Put and verified against their checksums on Get, so a
// process restart pointed at the same directory keeps the cache warm. Total
// size is bounded by maxBytes with LRU eviction. Corrupt files are
// quarantined (moved into quarantine/), never served.
//
// The store is multi-process safe, so an lscatter-served instance and an
// lscatter-bench -artifact-dir sweep can share one directory: mutations hold
// an advisory exclusive lock on dir/.lock for their duration (never at rest,
// so several open stores — including several in one process — interleave
// freely), every write is an atomic temp+fsync+rename, and a Get that misses
// the in-memory index probes the canonical file name so artifacts Put by a
// sibling process are adopted instead of recomputed. The *.art files are the
// store's only on-disk state: the in-memory index and its LRU order are
// rebuilt from a directory scan at every open.
type DiskStore struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	entries  map[Key]*list.Element
	order    *list.List // front = most recently used
	bytes    int64
	logf     func(format string, args ...any)
	flock    *fileLock

	hits, misses, puts, evictions uint64
	quarantined, adopted          uint64
}

type diskEntry struct {
	key  Key
	file string
	size int64
}

// DiskStats is the disk store's observability snapshot.
type DiskStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
	// Adopted counts artifacts discovered on disk after open — written there
	// by a sibling process sharing the directory — and served as hits.
	Adopted uint64 `json:"adopted"`
}

// FileName is the canonical file name for a key. The spec hash is validated
// hex and the seed is fixed-width, so names are filesystem-safe and unique
// per key — which is also what lets sibling processes find each other's
// artifacts without coordination.
func FileName(k Key) string {
	return fmt.Sprintf("%s-%016x%s", k.SpecHash, k.Seed, artifactExt)
}

// Open opens (creating if needed) a durable artifact store rooted at dir.
// maxBytes <= 0 selects a 256 MiB default. Startup rebuilds the in-memory
// index by scanning the directory: every *.art file's header is verified
// (magic, version, key-matches-name, length claim vs file size) and failures
// are quarantined; the survivors enter the LRU newest-written first (by file
// mtime). Other files in dir are ignored. logf receives one line per
// quarantined file (nil = drop logs).
func Open(dir string, maxBytes int64, logf func(string, ...any)) (*DiskStore, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &DiskStore{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
		logf:     logf,
	}
	fl, err := openFileLock(filepath.Join(dir, ".lock"))
	if err != nil {
		// The lock is an accelerator for multi-process sharing; a filesystem
		// that cannot host it degrades to single-process semantics.
		d.logf("store: advisory lock unavailable: %v", err)
	}
	d.flock = fl
	d.lock()
	err = d.load()
	d.unlock()
	if err != nil {
		return nil, err
	}
	return d, nil
}

// lock/unlock bracket a mutation with the cross-process advisory lock. They
// are no-ops when the lock file could not be opened. The in-process mutex is
// always held first, so lock ordering is consistent.
func (d *DiskStore) lock()   { d.flock.Lock() }
func (d *DiskStore) unlock() { d.flock.Unlock() }

// load scans dir, verifies every artifact header, and fills the LRU
// newest-written first, then applies the byte budget.
func (d *DiskStore) load() error {
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type scanned struct {
		diskEntry
		mtime time.Time
	}
	var found []scanned
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, artifactExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key, err := d.verifyHeader(name, info.Size())
		if err != nil {
			d.quarantine(name, err)
			continue
		}
		found = append(found, scanned{diskEntry{key: key, file: name, size: info.Size()}, info.ModTime()})
	}
	// Newest first; the stable sort keeps directory order among equal mtimes.
	sort.SliceStable(found, func(i, j int) bool { return found[i].mtime.After(found[j].mtime) })
	for i := range found {
		e := found[i].diskEntry
		d.entries[e.key] = d.order.PushBack(&e)
		d.bytes += e.size
	}
	d.evictOverLocked()
	return nil
}

// verifyHeader reads just the header of an artifact file and checks it
// against the file name and size. Body checksums are verified lazily at Get;
// truncation and zero-length files are caught here.
func (d *DiskStore) verifyHeader(name string, size int64) (Key, error) {
	f, err := os.Open(filepath.Join(d.dir, name))
	if err != nil {
		return Key{}, fmt.Errorf("%w: %v", errCorruptArtifact, err)
	}
	defer f.Close()
	head := make([]byte, artifactHeaderSize+maxHashLen+8+8+32)
	n, _ := f.Read(head)
	head = head[:n]
	if n < artifactHeaderSize {
		return Key{}, fmt.Errorf("%w: short file (%d bytes)", errCorruptArtifact, n)
	}
	if string(head[:8]) != artifactMagic {
		return Key{}, fmt.Errorf("%w: bad magic", errCorruptArtifact)
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != artifactVersion {
		return Key{}, fmt.Errorf("%w: unknown version %d", errCorruptArtifact, v)
	}
	hashLen := binary.LittleEndian.Uint32(head[12:16])
	if hashLen == 0 || hashLen > maxHashLen {
		return Key{}, fmt.Errorf("%w: hash length %d out of range", errCorruptArtifact, hashLen)
	}
	if uint32(len(head)) < artifactHeaderSize+hashLen+8+8 {
		return Key{}, fmt.Errorf("%w: truncated header", errCorruptArtifact)
	}
	rest := head[artifactHeaderSize:]
	key := Key{
		SpecHash: string(rest[:hashLen]),
		Seed:     binary.LittleEndian.Uint64(rest[hashLen : hashLen+8]),
	}
	bodyLen := binary.LittleEndian.Uint64(rest[hashLen+8 : hashLen+16])
	wantSize := int64(artifactHeaderSize) + int64(hashLen) + 8 + 8 + 32 + int64(bodyLen)
	if size != wantSize {
		return Key{}, fmt.Errorf("%w: file size %d does not match header claim %d", errCorruptArtifact, size, wantSize)
	}
	if FileName(key) != name {
		return Key{}, fmt.Errorf("%w: header key %v does not match file name", errCorruptArtifact, key)
	}
	return key, nil
}

// quarantine moves a bad file aside (never deletes evidence) and logs once.
func (d *DiskStore) quarantine(name string, reason error) {
	d.quarantined++
	dst := filepath.Join(d.dir, quarantineDir, name)
	if err := os.Rename(filepath.Join(d.dir, name), dst); err != nil {
		// Rename across the same directory tree should not fail; fall back to
		// removal so the bad body can never be served.
		_ = os.Remove(filepath.Join(d.dir, name))
	}
	d.logf("store: quarantined %s: %v", name, reason)
}

// Get returns the stored body for the key, fully verified against its
// checksum. A file that fails verification is quarantined and reported as a
// miss, so a corrupt body is never served. A key absent from the in-memory
// index is probed once on disk under its canonical name, adopting artifacts
// a sibling process stored since this store opened.
func (d *DiskStore) Get(k Key) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.entries[k]
	if !ok {
		return d.adoptLocked(k)
	}
	e := el.Value.(*diskEntry)
	data, err := os.ReadFile(filepath.Join(d.dir, e.file))
	if err == nil {
		var key Key
		var body []byte
		key, body, err = decodeArtifact(data)
		if err == nil && key != k {
			err = fmt.Errorf("%w: header key %v does not match %v", errCorruptArtifact, key, k)
		}
		if err == nil {
			d.hits++
			d.order.MoveToFront(el)
			return body, true
		}
	}
	// Unreadable or corrupt: drop the entry, quarantine the file, miss.
	d.order.Remove(el)
	delete(d.entries, k)
	d.bytes -= e.size
	d.lock()
	d.quarantine(e.file, err)
	d.unlock()
	d.misses++
	return nil, false
}

// adoptLocked probes the canonical file for a key the in-memory index does
// not know — the cross-process read path. A valid artifact is adopted into
// the index and served; a corrupt one is quarantined; an absent one is a
// plain miss.
func (d *DiskStore) adoptLocked(k Key) ([]byte, bool) {
	name := FileName(k)
	data, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		d.misses++
		return nil, false
	}
	key, body, err := decodeArtifact(data)
	if err == nil && key != k {
		err = fmt.Errorf("%w: header key %v does not match %v", errCorruptArtifact, key, k)
	}
	if err != nil {
		d.lock()
		d.quarantine(name, err)
		d.unlock()
		d.misses++
		return nil, false
	}
	e := &diskEntry{key: k, file: name, size: int64(len(data))}
	d.entries[k] = d.order.PushFront(e)
	d.bytes += e.size
	d.hits++
	d.adopted++
	d.lock()
	d.evictOverLocked()
	d.unlock()
	return body, true
}

// Put durably stores a body under the key. The write is atomic — temp file,
// sync, rename — so a crash mid-write leaves either the old state or the new
// file, never a half-written artifact under the canonical name. Errors are
// logged, not returned: the disk layer is an accelerator, and the caller
// still holds the body.
func (d *DiskStore) Put(k Key, body []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.entries[k]; ok {
		// Identical by the determinism contract; refresh recency only.
		d.order.MoveToFront(el)
		return
	}
	data := encodeArtifact(k, body)
	name := FileName(k)
	d.lock()
	defer d.unlock()
	if err := WriteAtomic(filepath.Join(d.dir, name), data); err != nil {
		d.logf("store: write %s: %v", name, err)
		return
	}
	e := &diskEntry{key: k, file: name, size: int64(len(data))}
	d.entries[k] = d.order.PushFront(e)
	d.bytes += e.size
	d.puts++
	d.evictOverLocked()
}

// evictOverLocked removes least-recently-used artifacts until the byte
// budget holds.
func (d *DiskStore) evictOverLocked() {
	for d.bytes > d.maxBytes && d.order.Len() > 0 {
		el := d.order.Back()
		e := el.Value.(*diskEntry)
		d.order.Remove(el)
		delete(d.entries, e.key)
		d.bytes -= e.size
		d.evictions++
		_ = os.Remove(filepath.Join(d.dir, e.file))
	}
}

// Stats returns a consistent snapshot of the disk-store counters.
func (d *DiskStore) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:     len(d.entries),
		Bytes:       d.bytes,
		Hits:        d.hits,
		Misses:      d.misses,
		Puts:        d.puts,
		Evictions:   d.evictions,
		Quarantined: d.quarantined,
		Adopted:     d.adopted,
	}
}
