package lafdbscan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan/internal/wal"
)

// Journal layout. A durable model's directory holds generations named by
// LSN — the lifetime count of journaled mutation records:
//
//	snap-%016d.lafm   Model.Save snapshot taken at that LSN
//	wal-%016d.log     mutation records appended after that snapshot
//
// A generation's WAL segment replays on top of its same-LSN snapshot;
// recovery chains consecutive segments (each segment's LSN must equal the
// previous snapshot LSN plus the records replayed so far), so an older
// snapshot plus newer segments still reconstructs the latest state when the
// newest snapshot is corrupt. Files with a ".tmp" suffix are uncommitted
// snapshots and are removed on open.
const (
	snapPrefix = "snap-"
	snapSuffix = ".lafm"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	tmpSuffix  = ".tmp"
)

func snapName(lsn int64) string { return fmt.Sprintf("snap-%016d%s", lsn, snapSuffix) }
func walSegName(lsn int64) string {
	return fmt.Sprintf("wal-%016d%s", lsn, walSuffix)
}

// parseGen classifies a journal directory entry. kind is "snap", "wal" or
// "tmp"; ok is false for foreign files, which open and compaction ignore.
func parseGen(name string) (kind string, lsn int64, ok bool) {
	if strings.HasSuffix(name, tmpSuffix) {
		return "tmp", 0, true
	}
	var prefix, suffix string
	switch {
	case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
		kind, prefix, suffix = "snap", snapPrefix, snapSuffix
	case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
		kind, prefix, suffix = "wal", walPrefix, walSuffix
	default:
		return "", 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(digits) != 16 {
		return "", 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 {
		return "", 0, false
	}
	return kind, n, true
}

// DurableOptions configures a DurableModel's journal.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default SyncAlways: every committed
	// mutation survives a crash).
	Sync wal.SyncPolicy
	// SyncInterval bounds the data-loss window under SyncInterval
	// (default wal.DefaultSyncInterval).
	SyncInterval time.Duration
	// SnapshotEvery triggers an automatic snapshot + compaction once the
	// active segment holds this many records; <= 0 disables auto-snapshots
	// (Snapshot can still be called explicitly).
	SnapshotEvery int
	// FS overrides the filesystem (tests inject walfs faults); nil means
	// the real disk.
	FS wal.FS
	// Retrain, when non-nil, is installed on the model before replay so a
	// recovered model retrains its estimator on the same schedule the live
	// one did.
	Retrain *RetrainPolicy
	// OnAppend, OnFsync and OnSnapshot feed telemetry; all optional.
	OnAppend   func(bytes int)
	OnFsync    func(d time.Duration)
	OnSnapshot func(lsn int64)
}

func (o DurableOptions) fs() wal.FS {
	if o.FS != nil {
		return o.FS
	}
	return wal.OSFS()
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{
		Sync:         o.Sync,
		SyncInterval: o.SyncInterval,
		OnAppend:     o.OnAppend,
		OnFsync:      o.OnFsync,
	}
}

// RecoveryReport describes what OpenDurable reconstructed and what it had
// to drop. Truncated is true when a torn or corrupt tail was cut from the
// journal; Reason carries the named wal error that stopped replay.
type RecoveryReport struct {
	// SnapshotLSN is the LSN of the snapshot the recovery started from.
	SnapshotLSN int64 `json:"snapshot_lsn"`
	// Records, Inserted and Removed count the WAL records replayed on top
	// of the snapshot and the points they touched.
	Records  int64 `json:"records"`
	Inserted int   `json:"inserted"`
	Removed  int   `json:"removed"`
	// Truncated reports that replay stopped at a torn or corrupt record;
	// Reason names the wal error and DroppedBytes the bytes cut.
	Truncated    bool   `json:"truncated,omitempty"`
	Reason       string `json:"reason,omitempty"`
	DroppedBytes int64  `json:"dropped_bytes,omitempty"`
	// SnapshotsDropped counts newer snapshots that failed to load and were
	// skipped in favour of an older generation.
	SnapshotsDropped int `json:"snapshots_dropped,omitempty"`
	// Compacted counts journal files removed after recovery.
	Compacted int `json:"compacted,omitempty"`
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// SnapshotInfo describes one explicit Snapshot call.
type SnapshotInfo struct {
	// LSN is the journal position the snapshot captured.
	LSN int64 `json:"lsn"`
	// Bytes is the committed snapshot file size.
	Bytes int64 `json:"bytes"`
	// Compacted counts older journal files removed.
	Compacted int `json:"compacted"`
}

// DurableStats is a point-in-time view of the journal for telemetry.
type DurableStats struct {
	// LSN is the lifetime journaled record count.
	LSN int64 `json:"lsn"`
	// SnapshotLSN is the LSN of the newest committed snapshot.
	SnapshotLSN int64 `json:"snapshot_lsn"`
	// SegmentRecords and SegmentBytes describe the active WAL segment.
	SegmentRecords int64 `json:"segment_records"`
	SegmentBytes   int64 `json:"segment_bytes"`
	// Snapshots counts snapshots taken over this handle's lifetime.
	Snapshots int64 `json:"snapshots"`
}

// ErrDurableClosed is returned by mutations on a closed DurableModel.
var ErrDurableClosed = errors.New("lafdbscan: durable model is closed")

// DurableModel journals mutations to a write-ahead log for the wrapped
// Model, so a crash at any point loses at most the un-fsynced tail of the
// journal and never corrupts the model: recovery replays the WAL on top of
// the newest loadable snapshot and reconstructs a state bit-identical to
// some prefix of the mutation history.
//
// Write path: each mutation runs the model's one mutation path with a
// journal — plan (validation and every range query, cancellable), then
// append and fsync the record, then commit it in memory. A mutation the
// plan rejects or that is cancelled never reaches the disk, so the journal
// holds exactly the committed mutations. The fsync runs with no model lock
// held: Predict and the other reads of Model() keep running through it.
//
// Consistency contract: the DurableModel mutex serializes mutations and
// snapshots, so Snapshot always captures a state that lies exactly on a
// record boundary — never between a record's append and its commit.
// Model.Save called directly on the wrapped model is likewise a consistent
// cut (it sees the state before an in-flight mutation's commit or after
// it), but only Snapshot advances the journal generation and compacts old
// segments.
//
// All methods are safe for concurrent use.
type DurableModel struct {
	fsys wal.FS
	dir  string
	opts DurableOptions

	snapshotsTaken atomic.Int64

	mu sync.Mutex
	// Guarded by mu.
	model    *Model
	log      *wal.Log
	lsn      int64 // lifetime journaled record count
	segStart int64 // LSN of the active segment's base snapshot
	closed   bool
}

// NewDurable wraps model with a journal rooted at dir, writing the initial
// snapshot (generation 0) immediately. It refuses a directory that already
// holds journal files — recover those with OpenDurable instead.
func NewDurable(model *Model, dir string, opts DurableOptions) (*DurableModel, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("lafdbscan: creating journal dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lafdbscan: reading journal dir: %w", err)
	}
	for _, name := range names {
		if kind, _, ok := parseGen(name); ok && kind != "tmp" {
			return nil, fmt.Errorf("lafdbscan: journal dir %s already holds %s; use OpenDurable to recover it", dir, name)
		}
	}
	if opts.Retrain != nil {
		model.SetRetrainPolicy(*opts.Retrain)
	}
	d := &DurableModel{fsys: fsys, dir: dir, opts: opts, model: model}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.snapshotLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// OpenDurable recovers a DurableModel from dir: it loads the newest
// snapshot that parses (dropping corrupt ones in favour of older
// generations), replays every consecutive WAL segment on top of it, cuts a
// torn or corrupt tail at the last well-formed record, compacts obsolete
// generations, and reopens the journal for appending. The report says
// exactly what was reconstructed and what was dropped; corruption is never
// a panic and — short of every snapshot failing to load — not an error.
func OpenDurable(ctx context.Context, dir string, opts DurableOptions) (*DurableModel, RecoveryReport, error) {
	start := time.Now()
	var rep RecoveryReport
	fsys := opts.fs()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, rep, fmt.Errorf("lafdbscan: reading journal dir: %w", err)
	}
	var snaps, segs []int64
	var tmps []string
	for _, name := range names {
		switch kind, lsn, ok := parseGen(name); {
		case !ok:
		case kind == "tmp":
			tmps = append(tmps, name)
		case kind == "snap":
			snaps = append(snaps, lsn)
		case kind == "wal":
			segs = append(segs, lsn)
		}
	}
	if len(snaps) == 0 {
		return nil, rep, fmt.Errorf("lafdbscan: no snapshot in journal dir %s", dir)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	// Newest loadable snapshot wins; corrupt ones are dropped, not fatal.
	var model *Model
	var base int64
	var loadErrs []error
	for _, lsn := range snaps {
		m, err := loadSnapshot(fsys, filepath.Join(dir, snapName(lsn)))
		if err != nil {
			loadErrs = append(loadErrs, fmt.Errorf("%s: %w", snapName(lsn), err))
			rep.SnapshotsDropped++
			continue
		}
		model, base = m, lsn
		break
	}
	if model == nil {
		return nil, rep, fmt.Errorf("lafdbscan: every snapshot in %s failed to load: %w", dir, errors.Join(loadErrs...))
	}
	rep.SnapshotLSN = base
	if opts.Retrain != nil {
		model.SetRetrainPolicy(*opts.Retrain)
	}

	// Chain consecutive segments on top of the snapshot. A gap means the
	// intermediate history was compacted away by a newer generation whose
	// snapshot just failed to load — nothing after the gap can apply.
	cur := base
	var lastSeg int64 = -1
	var lastReplay wal.ReplayReport
	for _, segLSN := range segs {
		if segLSN < base {
			continue
		}
		if segLSN != cur {
			break
		}
		r, err := wal.Replay(fsys, filepath.Join(dir, walSegName(segLSN)), func(rec *wal.Record) error {
			urep, aerr := model.apply(ctx, rec, nil)
			if errors.Is(aerr, ErrRetrainFailed) {
				aerr = nil // applied; as on the live path, only the retrain failed
			}
			rep.Inserted += urep.Inserted
			rep.Removed += urep.Removed
			return aerr
		})
		if err != nil {
			return nil, rep, fmt.Errorf("lafdbscan: replaying %s: %w", walSegName(segLSN), err)
		}
		rep.Records += r.Records
		cur += r.Records
		lastSeg, lastReplay = segLSN, r
		if r.Truncated {
			rep.Truncated = true
			rep.Reason = r.Reason
			rep.DroppedBytes += r.DroppedBytes
			break
		}
	}

	d := &DurableModel{fsys: fsys, dir: dir, opts: opts, model: model, lsn: cur, segStart: base}
	// Reopen the journal for appending: continue the last replayed segment
	// at its valid prefix, or start a fresh one when none survived.
	var log *wal.Log
	if lastSeg >= 0 {
		log, err = wal.OpenAt(fsys, filepath.Join(dir, walSegName(lastSeg)), lastReplay.ValidSize, lastReplay.Records, opts.walOptions())
		d.segStart = lastSeg
	} else {
		log, err = wal.Create(fsys, filepath.Join(dir, walSegName(base)), opts.walOptions())
	}
	if err != nil {
		return nil, rep, fmt.Errorf("lafdbscan: reopening journal: %w", err)
	}
	d.log = log

	// Compact: uncommitted temps, snapshots other than the base, and
	// segments outside [base, segStart] are dead weight.
	for _, name := range tmps {
		if fsys.Remove(filepath.Join(dir, name)) == nil {
			rep.Compacted++
		}
	}
	for _, lsn := range snaps {
		if lsn != base && fsys.Remove(filepath.Join(dir, snapName(lsn))) == nil {
			rep.Compacted++
		}
	}
	for _, segLSN := range segs {
		if (segLSN < base || segLSN > d.segStart) && fsys.Remove(filepath.Join(dir, walSegName(segLSN))) == nil {
			rep.Compacted++
		}
	}
	rep.Elapsed = time.Since(start)
	return d, rep, nil
}

func loadSnapshot(fsys wal.FS, path string) (*Model, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := LoadModel(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// Insert plans the batch against the model, journals it, then commits it
// (see Model.apply). The append is the commit point: once it returns under
// SyncAlways the batch survives any crash. A batch the plan rejects (for
// example a dimension mismatch) or a cancelled one writes nothing to the
// journal. A failed retrain (ErrRetrainFailed) is no rejection: the batch
// is applied, so its record stays, and the report is returned with the
// error.
func (d *DurableModel) Insert(ctx context.Context, vectors [][]float32) (UpdateReport, error) {
	return d.mutate(ctx, &wal.Record{Kind: wal.KindInsert, Vectors: vectors})
}

// Remove plans, journals and commits the batch with the same semantics
// as Insert.
func (d *DurableModel) Remove(ctx context.Context, ids []int) (UpdateReport, error) {
	return d.mutate(ctx, &wal.Record{Kind: wal.KindRemove, IDs: ids})
}

// mutate runs rec through the model's one mutation path with a journal
// that appends it and advances the LSN; an empty batch is never journaled.
func (d *DurableModel) mutate(ctx context.Context, rec *wal.Record) (UpdateReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return UpdateReport{}, ErrDurableClosed
	}
	lsn := d.lsn
	urep, err := d.model.apply(ctx, rec, func(rec *wal.Record) error {
		if err := d.log.Append(rec); err != nil {
			return fmt.Errorf("lafdbscan: journaling mutation: %w", err)
		}
		d.lsn++
		return nil
	})
	// A journaled record is applied, though its retrain may have failed
	// (err wraps ErrRetrainFailed); the report is returned with the error.
	if d.lsn > lsn && d.opts.SnapshotEvery > 0 && d.lsn-d.segStart >= int64(d.opts.SnapshotEvery) {
		if _, serr := d.snapshotLocked(); serr != nil {
			return urep, errors.Join(err, fmt.Errorf("lafdbscan: mutation committed but snapshot failed: %w", serr))
		}
	}
	return urep, err
}

// Snapshot writes the model to a new generation (Model.Save via a temp
// file, fsync, atomic rename, directory sync), rolls the WAL to a fresh
// segment at the current LSN, and compacts every older generation. After
// it returns, recovery needs only the new snapshot plus the new segment.
func (d *DurableModel) Snapshot() (SnapshotInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return SnapshotInfo{}, ErrDurableClosed
	}
	return d.snapshotLocked()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (d *DurableModel) snapshotLocked() (SnapshotInfo, error) {
	lsn := d.lsn
	final := filepath.Join(d.dir, snapName(lsn))
	tmp := final + tmpSuffix
	f, err := d.fsys.Create(tmp)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: creating snapshot: %w", err)
	}
	cw := &countingWriter{w: f}
	if err := d.model.Save(cw); err != nil {
		f.Close()
		d.fsys.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		d.fsys.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		d.fsys.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: closing snapshot: %w", err)
	}
	if err := d.fsys.Rename(tmp, final); err != nil {
		d.fsys.Remove(tmp)
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: committing snapshot: %w", err)
	}
	if err := d.fsys.SyncDir(d.dir); err != nil {
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: syncing journal dir: %w", err)
	}
	log, err := wal.Create(d.fsys, filepath.Join(d.dir, walSegName(lsn)), d.opts.walOptions())
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("lafdbscan: rolling journal segment: %w", err)
	}
	if d.log != nil {
		d.log.Close()
	}
	d.log = log

	info := SnapshotInfo{LSN: lsn, Bytes: cw.n}
	names, err := d.fsys.ReadDir(d.dir)
	if err == nil {
		for _, name := range names {
			kind, glsn, ok := parseGen(name)
			if !ok {
				continue
			}
			stale := kind == "tmp" || // ours was renamed; any left is dead
				kind == "snap" && glsn < lsn ||
				kind == "wal" && glsn < lsn
			if stale && d.fsys.Remove(filepath.Join(d.dir, name)) == nil {
				info.Compacted++
			}
		}
	}
	d.segStart = lsn
	d.snapshotsTaken.Add(1)
	if d.opts.OnSnapshot != nil {
		d.opts.OnSnapshot(lsn)
	}
	return info, nil
}

// Model returns the wrapped model for reads (Predict, Labels, Save, ...).
// Mutations must go through the DurableModel or they will not be
// journaled.
func (d *DurableModel) Model() *Model {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model
}

// Stats reports the journal's current position and sizes.
func (d *DurableModel) Stats() DurableStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DurableStats{
		LSN:         d.lsn,
		SnapshotLSN: d.segStart,
		Snapshots:   d.snapshotsTaken.Load(),
	}
	if d.log != nil {
		st.SegmentRecords = d.log.Records()
		st.SegmentBytes = d.log.Size()
	}
	return st
}

// Dir returns the journal directory.
func (d *DurableModel) Dir() string { return d.dir }

// Close flushes and closes the journal. The model remains readable; only
// mutations are refused afterwards. Idempotent.
func (d *DurableModel) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.log != nil {
		return d.log.Close()
	}
	return nil
}

// Destroy closes the journal and deletes its files (snapshots, segments,
// temps) plus the directory when that leaves it empty. Foreign files are
// left alone.
func (d *DurableModel) Destroy() error {
	cerr := d.Close()
	names, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return errors.Join(cerr, err)
	}
	var errs []error
	if cerr != nil {
		errs = append(errs, cerr)
	}
	for _, name := range names {
		if _, _, ok := parseGen(name); !ok {
			continue
		}
		if rerr := d.fsys.Remove(filepath.Join(d.dir, name)); rerr != nil {
			errs = append(errs, rerr)
		}
	}
	d.fsys.Remove(d.dir) // best effort: fails when foreign files remain
	return errors.Join(errs...)
}
