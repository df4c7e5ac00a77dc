//go:build unix

package store

import (
	"os"
	"syscall"
)

// fileLock is the advisory cross-process lock on the artifact directory:
// flock(2) on a dedicated .lock file. It is held only for the duration of a
// mutation, never at rest, so any number of stores — in one process or many
// (a server and a sweep sharing one directory) — interleave without
// deadlock. flock is advisory: it serializes stores that opt in, which every
// DiskStore does, and costs nothing else.
type fileLock struct{ f *os.File }

func openFileLock(path string) (*fileLock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileLock{f: f}, nil
}

// Lock takes the exclusive lock, blocking until sibling processes release
// it. A nil lock (filesystem without flock support) degrades to a no-op.
func (l *fileLock) Lock() {
	if l == nil || l.f == nil {
		return
	}
	_ = syscall.Flock(int(l.f.Fd()), syscall.LOCK_EX)
}

// Unlock releases the exclusive lock.
func (l *fileLock) Unlock() {
	if l == nil || l.f == nil {
		return
	}
	_ = syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN)
}
