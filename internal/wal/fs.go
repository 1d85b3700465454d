package wal

import (
	"io"
	"os"
)

// File is the writable handle a log appends to. Truncate serves two
// rollbacks: cutting a torn tail back to the last well-formed record on
// open, and Append's own rollback of a write that failed part-way.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS abstracts the filesystem operations the WAL and the snapshot
// machinery need, so tests can inject faults (walfs) without touching the
// real disk layout. Paths are plain OS paths; implementations must keep
// Rename atomic with respect to crashes on the same directory (the POSIX
// contract the snapshot commit protocol relies on).
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the names (not paths) of the directory's entries in
	// lexical order.
	ReadDir(dir string) ([]string, error)
	Remove(path string) error
	Rename(oldPath, newPath string) error
	// Create truncates or creates the file for writing. Writes must land
	// at the current end of file even after a Truncate (O_APPEND
	// semantics) — Append's rollback of a failed write relies on it.
	Create(path string) (File, error)
	// OpenAppend opens (creating if absent) the file for appending, with
	// the same post-Truncate contract as Create.
	OpenAppend(path string) (File, error)
	// Open opens the file for reading.
	Open(path string) (io.ReadCloser, error)
	// SyncDir flushes directory metadata — the rename that commits a
	// snapshot is durable only after its directory is synced.
	SyncDir(dir string) error
}

// OSFS returns the production FS backed by the os package.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
