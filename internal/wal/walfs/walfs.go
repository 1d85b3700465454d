// Package walfs is a fault-injecting wal.FS for crash testing the
// durability layer. It wraps a base filesystem and models the failure
// modes a WAL must survive:
//
//   - crash-at-byte-N (CrashAfter): after a write budget is exhausted the
//     "machine" dies — the write that crosses the boundary persists only up
//     to it (a torn record), and every later write, sync, rename, remove or
//     truncate silently evaporates while still reporting success, exactly
//     like a process whose I/O was acknowledged into a page cache that was
//     never flushed. The in-memory model keeps running ahead of the disk,
//     which is the divergence recovery must close.
//   - torn tails and bit flips (Chop, FlipBit): direct on-disk corruption
//     helpers for manufacturing the states Replay truncates at.
//   - short reads (ShortReads): readers that return one byte per Read call,
//     pinning that recovery never assumes a full buffer per syscall.
//   - a failed fsync (FailNextSync): one file Sync returns an error, as a
//     disk that cannot flush does, and the machine keeps running.
package walfs

import (
	"errors"
	"io"
	"os"
	"sync/atomic"

	"lafdbscan/internal/wal"
)

// FS wraps a base wal.FS with switchable fault injection. The zero fault
// state passes everything through. Budget accounting is designed for the
// WAL's single-writer discipline (one mutator at a time under the log's
// mutex); concurrent writers would race the budget but not corrupt it.
type FS struct {
	base wal.FS

	budget     atomic.Int64 // bytes that may still reach the base FS; -1 = unlimited
	dead       atomic.Bool
	shortReads atomic.Bool
	failSync   atomic.Bool
	written    atomic.Int64 // bytes actually persisted to the base FS
}

// ErrSyncFault is what a Sync armed by FailNextSync returns.
var ErrSyncFault = errors.New("walfs: injected fsync failure")

// New wraps base (wal.OSFS() for real-disk tests) with no faults armed.
func New(base wal.FS) *FS {
	f := &FS{base: base}
	f.budget.Store(-1)
	return f
}

// CrashAfter arms the write budget: after n more bytes reach the base
// filesystem the machine "dies" (see the package comment). n = 0 kills it
// on the next write.
func (f *FS) CrashAfter(n int64) {
	f.budget.Store(n)
	f.dead.Store(false)
}

// Revive clears the crash state and budget — the test's "reboot onto a
// healthy disk" switch.
func (f *FS) Revive() {
	f.budget.Store(-1)
	f.dead.Store(false)
}

// Dead reports whether the crash boundary has been hit.
func (f *FS) Dead() bool { return f.dead.Load() }

// ShortReads makes every subsequently opened reader deliver at most one
// byte per Read call.
func (f *FS) ShortReads(on bool) { f.shortReads.Store(on) }

// FailNextSync makes the next file Sync return ErrSyncFault without
// syncing; later syncs pass through again.
func (f *FS) FailNextSync() { f.failSync.Store(true) }

// Written returns the bytes actually persisted through this FS.
func (f *FS) Written() int64 { return f.written.Load() }

func (f *FS) MkdirAll(dir string) error {
	if f.dead.Load() {
		return nil
	}
	return f.base.MkdirAll(dir)
}

func (f *FS) ReadDir(dir string) ([]string, error) { return f.base.ReadDir(dir) }

func (f *FS) Remove(path string) error {
	if f.dead.Load() {
		return nil
	}
	return f.base.Remove(path)
}

func (f *FS) Rename(oldPath, newPath string) error {
	if f.dead.Load() {
		return nil
	}
	return f.base.Rename(oldPath, newPath)
}

func (f *FS) Create(path string) (wal.File, error) {
	if f.dead.Load() {
		return deadFile{}, nil
	}
	file, err := f.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) OpenAppend(path string) (wal.File, error) {
	if f.dead.Load() {
		return deadFile{}, nil
	}
	file, err := f.base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) Open(path string) (io.ReadCloser, error) {
	r, err := f.base.Open(path)
	if err != nil {
		return nil, err
	}
	if f.shortReads.Load() {
		return &shortReader{r: r}, nil
	}
	return r, nil
}

func (f *FS) SyncDir(dir string) error {
	if f.dead.Load() {
		return nil
	}
	return f.base.SyncDir(dir)
}

// faultFile applies the write budget to one file handle.
type faultFile struct {
	fs *FS
	f  wal.File
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.dead.Load() {
		return len(p), nil
	}
	if b := w.fs.budget.Load(); b >= 0 {
		if int64(len(p)) > b {
			// The boundary write: its prefix hits the disk, the machine
			// dies, and the caller still sees success — the kernel had
			// acknowledged the bytes it will never flush.
			w.fs.dead.Store(true)
			w.fs.budget.Store(0)
			if b > 0 {
				if n, err := w.f.Write(p[:b]); err == nil {
					w.fs.written.Add(int64(n))
				}
			}
			return len(p), nil
		}
		w.fs.budget.Store(b - int64(len(p)))
	}
	n, err := w.f.Write(p)
	w.fs.written.Add(int64(n))
	return n, err
}

func (w *faultFile) Sync() error {
	if w.fs.dead.Load() {
		return nil
	}
	if w.fs.failSync.CompareAndSwap(true, false) {
		return ErrSyncFault
	}
	return w.f.Sync()
}

func (w *faultFile) Truncate(size int64) error {
	if w.fs.dead.Load() {
		return nil
	}
	return w.f.Truncate(size)
}

// Close always releases the underlying handle: a dead machine holds no
// file descriptors, and leaking them would fail unrelated tests.
func (w *faultFile) Close() error { return w.f.Close() }

// deadFile is what file creation returns after the crash boundary: every
// operation succeeds and persists nothing.
type deadFile struct{}

func (deadFile) Write(p []byte) (int, error) { return len(p), nil }
func (deadFile) Sync() error                 { return nil }
func (deadFile) Truncate(int64) error        { return nil }
func (deadFile) Close() error                { return nil }

// shortReader delivers at most one byte per Read.
type shortReader struct{ r io.ReadCloser }

func (s *shortReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return s.r.Read(p)
}

func (s *shortReader) Close() error { return s.r.Close() }

// Chop truncates the file at path to size bytes — a manufactured torn
// tail for replay tests (operates on the real OS filesystem).
func Chop(path string, size int64) error { return os.Truncate(path, size) }

// FlipBit flips bit (0-7) of the byte at offset off in the file at path —
// manufactured media corruption the CRC must catch.
func FlipBit(path string, off int64, bit uint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit & 7)
	_, err = f.WriteAt(b[:], off)
	return err
}
