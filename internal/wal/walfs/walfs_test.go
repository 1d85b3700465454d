package walfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lafdbscan/internal/wal"
)

// TestCrashAfter arms the budget mid-history and pins the crash model: the
// writer keeps seeing success, the disk keeps only the journaled prefix,
// and replay on a healthy filesystem recovers exactly the records whose
// bytes fit the budget — with the boundary record reported torn.
func TestCrashAfter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	fs := New(wal.OSFS())
	l, err := wal.Create(fs, path, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Kind: wal.KindInsert, Vectors: [][]float32{{1, 2, 3, 4}}}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	recSize := l.Size() - wal.HeaderSize
	// Budget: one full record plus half of the next. Record 2 commits,
	// record 3 tears, records 4+ evaporate.
	fs.CrashAfter(recSize + recSize/2)
	for i := 0; i < 4; i++ {
		if err := l.Append(&rec); err != nil {
			t.Fatalf("append after crash must still report success, got %v", err)
		}
	}
	if !fs.Dead() {
		t.Fatal("budget never tripped")
	}
	if l.Records() != 5 {
		t.Fatalf("in-memory log counts %d records, want 5", l.Records())
	}
	l.Close()

	rep, err := wal.Replay(wal.OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 {
		t.Fatalf("disk survived %d records, want 2", rep.Records)
	}
	if !rep.Truncated || !strings.Contains(rep.Reason, "torn") {
		t.Fatalf("boundary record not reported torn: %+v", rep)
	}
}

// TestCrashExactBoundary pins the n == budget case: the boundary write
// persists whole, then the machine dies, so replay sees a clean segment.
func TestCrashExactBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	fs := New(wal.OSFS())
	l, err := wal.Create(fs, path, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Kind: wal.KindRemove, IDs: []int{1, 2}}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	recSize := l.Size() - wal.HeaderSize
	fs.CrashAfter(recSize)
	if err := l.Append(&rec); err != nil { // exactly consumes the budget
		t.Fatal(err)
	}
	if err := l.Append(&rec); err != nil { // evaporates
		t.Fatal(err)
	}
	l.Close()
	rep, err := wal.Replay(wal.OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Truncated {
		t.Fatalf("report = %+v, want 2 clean records", rep)
	}
}

// TestShortReads pins that replay tolerates one-byte reads (io.ReadAll's
// contract, but the fault keeps recovery honest about short-read loops).
func TestShortReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	l, err := wal.Create(wal.OSFS(), path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{Kind: wal.KindInsert, Vectors: [][]float32{{5, 6}}}
	for i := 0; i < 3; i++ {
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	fs := New(wal.OSFS())
	fs.ShortReads(true)
	rep, err := wal.Replay(fs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || rep.Truncated {
		t.Fatalf("short-read replay = %+v, want 3 clean records", rep)
	}
}

// TestChopAndFlipBit sanity-checks the corruption helpers themselves.
func TestChopAndFlipBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte{0xff, 0x00, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := Chop(path, 2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 0x08 {
		t.Fatalf("file = %x, want ff08", got)
	}
}

// TestFailedSyncRollsBack pins Append's fsync rollback: under SyncAlways a
// record whose fsync fails is refused, truncated off the segment and left
// uncounted, so replay never sees a record the writer was told failed, and
// the next append lands where the refused one would have.
func TestFailedSyncRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	fs := New(wal.OSFS())
	l, err := wal.Create(fs, path, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := wal.Record{Kind: wal.KindInsert, Vectors: [][]float32{{1, 2}}}
	if err := l.Append(&first); err != nil {
		t.Fatal(err)
	}
	size, records := l.Size(), l.Records()
	fs.FailNextSync()
	refused := wal.Record{Kind: wal.KindRemove, IDs: []int{0}}
	if err := l.Append(&refused); !errors.Is(err, ErrSyncFault) {
		t.Fatalf("append under a failing fsync: error = %v, want ErrSyncFault", err)
	}
	if l.Size() != size || l.Records() != records {
		t.Fatalf("after the failed fsync: size %d, %d records; want %d, %d", l.Size(), l.Records(), size, records)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != size {
		t.Fatalf("segment on disk: %v, %v; want %d bytes", st, err, size)
	}
	second := wal.Record{Kind: wal.KindInsert, Vectors: [][]float32{{3, 4}}}
	if err := l.Append(&second); err != nil {
		t.Fatal(err)
	}
	var kinds []wal.Kind
	rep, err := wal.Replay(wal.OSFS(), path, func(r *wal.Record) error {
		kinds = append(kinds, r.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || len(kinds) != 2 || kinds[0] != wal.KindInsert || kinds[1] != wal.KindInsert {
		t.Fatalf("replay: %+v, kinds %v; want the two acknowledged inserts", rep, kinds)
	}
}
