package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// SyncPolicy selects when appends fsync the segment.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append: the append returning is the
	// commit point, and a crash loses nothing that was acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncInterval window, piggybacked
	// on appends: bounded loss (records younger than the window) for far
	// fewer fsyncs under sustained ingest.
	SyncInterval
	// SyncOff never fsyncs; flushing is the OS's business. Replay still
	// never sees a torn record — the single-write append keeps segments
	// crash-consistent — but the newest records may be lost.
	SyncOff
)

// ParseSyncPolicy maps the flag spelling ("always", "interval", "off") to
// a policy; the empty string selects SyncAlways.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// DefaultSyncInterval is the SyncInterval window when Options leaves it 0.
const DefaultSyncInterval = 100 * time.Millisecond

// Options configure a Log.
type Options struct {
	Sync SyncPolicy
	// SyncInterval is the SyncInterval policy's window (0 selects
	// DefaultSyncInterval).
	SyncInterval time.Duration
	// OnAppend, if set, observes every successful append with the record's
	// framed size in bytes (telemetry hook; called outside hot-path locks'
	// critical invariants but under the log's own mutex — keep it cheap).
	OnAppend func(bytes int)
	// OnFsync, if set, observes every fsync with its duration.
	OnFsync func(d time.Duration)
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an append-only segment writer. Appends encode into a reused
// buffer and issue exactly one Write, so a crash tears at most the final
// record. Callers append only mutations they are about to commit, so the
// log never needs to take a record back.
type Log struct {
	path string
	fs   FS
	opts Options

	mu sync.Mutex
	// All fields below are guarded by mu.
	f        File
	buf      []byte
	size     int64
	records  int64
	lastSync time.Time
	closed   bool
}

// Create starts a fresh segment at path, writing (and, unless the policy
// is SyncOff, fsyncing) the segment header.
func Create(fsys FS, path string, opts Options) (*Log, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, fs: fsys, opts: opts, f: f}
	//lafvet:allow lockcheck the log is freshly constructed and unshared
	if err := l.writeHeaderLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenAt reopens an existing segment for appending. validSize and records
// name the segment's longest well-formed prefix (from a prior Replay); the
// file is truncated there first, so a torn tail is physically discarded
// before the first new append. validSize 0 means even the header was torn:
// the segment restarts empty.
func OpenAt(fsys FS, path string, validSize, records int64, opts Options) (*Log, error) {
	if validSize != 0 && validSize < HeaderSize {
		return nil, fmt.Errorf("wal: valid size %d is inside the segment header", validSize)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{path: path, fs: fsys, opts: opts, f: f}
	//lafvet:allow lockcheck the log is freshly constructed and unshared
	l.size, l.records = validSize, records
	if validSize == 0 {
		//lafvet:allow lockcheck the log is freshly constructed and unshared
		if err := l.writeHeaderLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// writeHeaderLocked writes the segment header at the current (empty) file
// position and fsyncs it unless the policy is SyncOff.
func (l *Log) writeHeaderLocked() error {
	hdr := AppendSegmentHeader(make([]byte, 0, HeaderSize))
	if _, err := l.f.Write(hdr); err != nil {
		return err
	}
	l.size += HeaderSize
	if l.opts.Sync != SyncOff {
		return l.syncLocked()
	}
	return nil
}

// Append journals rec: one buffered encode, one Write, then the policy's
// fsync. Under SyncAlways the return is the commit point. A failed write
// or fsync rolls the file back to the pre-append size and leaves the
// record uncounted, so the segment never carries a record the log did not
// acknowledge; if that truncate fails too, the log closes.
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var err error
	l.buf, err = AppendRecord(l.buf[:0], rec)
	if err != nil {
		return err
	}
	prev := l.size
	n, err := l.f.Write(l.buf)
	l.size += int64(n)
	if err == nil && l.syncDueLocked() {
		err = l.syncLocked()
	}
	if err != nil {
		if terr := l.f.Truncate(prev); terr != nil {
			l.closed = true
			return errors.Join(err, terr, l.f.Close())
		}
		l.size = prev
		return err
	}
	l.records++
	if fn := l.opts.OnAppend; fn != nil {
		fn(len(l.buf))
	}
	return nil
}

// syncDueLocked reports whether the policy fsyncs the append just written.
func (l *Log) syncDueLocked() bool {
	switch l.opts.Sync {
	case SyncAlways:
		return true
	case SyncInterval:
		iv := l.opts.SyncInterval
		if iv <= 0 {
			iv = DefaultSyncInterval
		}
		return time.Since(l.lastSync) >= iv
	}
	return false
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	d := time.Since(t0)
	l.lastSync = time.Now()
	if fn := l.opts.OnFsync; fn != nil {
		fn(d)
	}
	return nil
}

// Size returns the segment's current byte length (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of records in the segment.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Path returns the segment's file path.
func (l *Log) Path() string { return l.path }

// Close flushes (unless SyncOff) and closes the segment. Closing twice is
// a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var errs []error
	if l.opts.Sync != SyncOff {
		if err := l.syncLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.f.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ReplayReport describes what a Replay recovered — and, after a crash,
// what it had to drop. Truncated with a Reason naming ErrTornRecord,
// ErrCorruptRecord or ErrBadHeader is the expected post-crash state, not a
// failure; DroppedBytes counts everything from the first bad byte to the
// end of the file.
type ReplayReport struct {
	// Records is the number of well-formed records replayed.
	Records int64 `json:"records"`
	// Inserted and Removed total the points those records moved.
	Inserted int64 `json:"inserted"`
	Removed  int64 `json:"removed"`
	// ValidSize is the byte length of the longest well-formed prefix — the
	// size to OpenAt for continued appending.
	ValidSize int64 `json:"valid_size"`
	// Truncated reports that the segment ended in a torn or corrupt
	// record (or a bad header); Reason carries the named error's text and
	// DroppedBytes the length of the discarded suffix.
	Truncated    bool   `json:"truncated"`
	Reason       string `json:"reason,omitempty"`
	DroppedBytes int64  `json:"dropped_bytes"`
}

// Replay reads the segment at path and feeds every well-formed record, in
// append order, to apply. It stops — without error — at the first torn or
// corrupt record, reporting the drop; an apply error aborts the replay and
// is returned (the report then covers the records applied before it).
// A nil apply just scans, which is how tests and tools measure a
// segment's valid prefix.
func Replay(fsys FS, path string, apply func(*Record) error) (ReplayReport, error) {
	var rep ReplayReport
	r, err := fsys.Open(path)
	if err != nil {
		return rep, err
	}
	data, rerr := io.ReadAll(r)
	cerr := r.Close()
	if rerr != nil {
		return rep, rerr
	}
	if cerr != nil {
		return rep, cerr
	}
	total := int64(len(data))
	if err := CheckSegmentHeader(data); err != nil {
		// Nothing under a bad header is trusted: the whole file is dropped
		// and ValidSize 0 tells OpenAt to restart the segment.
		rep.Truncated = true
		rep.Reason = err.Error()
		rep.DroppedBytes = total
		return rep, nil
	}
	off := int64(HeaderSize)
	for {
		rec, n, err := DecodeRecord(data[off:])
		if err == io.EOF {
			break
		}
		if err != nil {
			rep.Truncated = true
			rep.Reason = err.Error()
			rep.DroppedBytes = total - off
			break
		}
		if apply != nil {
			if aerr := apply(&rec); aerr != nil {
				rep.ValidSize = off
				return rep, fmt.Errorf("wal: applying record %d: %w", rep.Records+1, aerr)
			}
		}
		off += int64(n)
		rep.Records++
		switch rec.Kind {
		case KindInsert:
			rep.Inserted += int64(len(rec.Vectors))
		case KindRemove:
			rep.Removed += int64(len(rec.IDs))
		}
	}
	rep.ValidSize = off
	return rep, nil
}
