package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testRecords is a small scripted history: two insert batches and a
// remove, enough to exercise both payload codecs and multi-record replay.
func testRecords() []Record {
	return []Record{
		{Kind: KindInsert, Vectors: [][]float32{{1, 2, 3}, {4, 5, 6}}},
		{Kind: KindRemove, IDs: []int{0, 3, 7}},
		{Kind: KindInsert, Vectors: [][]float32{{-0.5, 0.25, 1e9}}},
	}
}

func writeSegment(t *testing.T, dir string, recs []Record, opts Options) string {
	t.Helper()
	path := filepath.Join(dir, "seg.log")
	l, err := Create(OSFS(), path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayAll collects deep copies of every replayed record (Replay hands
// out views into its read buffer; copying keeps the ownership honest).
func replayAll(t *testing.T, path string) ([]Record, ReplayReport) {
	t.Helper()
	var got []Record
	rep, err := Replay(OSFS(), path, func(r *Record) error {
		cp := Record{Kind: r.Kind}
		for _, v := range r.Vectors {
			cp.Vectors = append(cp.Vectors, append([]float32(nil), v...))
		}
		if r.IDs != nil {
			cp.IDs = append([]int(nil), r.IDs...)
		}
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, rep
}

func TestRoundTrip(t *testing.T) {
	recs := testRecords()
	path := writeSegment(t, t.TempDir(), recs, Options{Sync: SyncAlways})
	got, rep := replayAll(t, path)
	if rep.Truncated || rep.Records != int64(len(recs)) {
		t.Fatalf("report = %+v, want %d records untruncated", rep, len(recs))
	}
	if rep.Inserted != 3 || rep.Removed != 3 {
		t.Fatalf("report counts = %+v, want 3 inserted / 3 removed", rep)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, got[i], recs[i])
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidSize != st.Size() {
		t.Fatalf("ValidSize = %d, file is %d", rep.ValidSize, st.Size())
	}
}

// recordBoundaries returns the byte offsets at which each record of the
// segment ends (starting with HeaderSize, the "zero records" boundary).
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSegmentHeader(data); err != nil {
		t.Fatal(err)
	}
	bounds := []int64{HeaderSize}
	off := int64(HeaderSize)
	for int(off) < len(data) {
		_, n, err := DecodeRecord(data[off:])
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		off += int64(n)
		bounds = append(bounds, off)
	}
	return bounds
}

// TestReplayEveryCut truncates the segment at every byte offset and pins
// the replay contract: the records strictly before the cut survive, cuts
// on record boundaries (and inside the header region at 8) are clean,
// everything else reports a truncation with a named reason — and nothing
// ever errors or panics.
func TestReplayEveryCut(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	path := writeSegment(t, dir, recs, Options{Sync: SyncOff})
	bounds := recordBoundaries(t, path)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		chopped := filepath.Join(dir, "chopped.log")
		if err := os.WriteFile(chopped, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, b := range bounds[1:] {
			if b <= cut {
				want++
			}
		}
		rep, err := Replay(OSFS(), chopped, nil)
		if err != nil {
			t.Fatalf("cut %d: replay errored: %v", cut, err)
		}
		if rep.Records != want {
			t.Fatalf("cut %d: %d records survive, want %d", cut, rep.Records, want)
		}
		atBoundary := false
		for _, b := range bounds {
			if b == cut {
				atBoundary = true
			}
		}
		if atBoundary && (rep.Truncated || rep.DroppedBytes != 0) {
			t.Fatalf("cut %d is a boundary but report = %+v", cut, rep)
		}
		if !atBoundary {
			if !rep.Truncated || rep.Reason == "" {
				t.Fatalf("cut %d: mid-record cut not reported: %+v", cut, rep)
			}
			if rep.DroppedBytes != cut-rep.ValidSize {
				t.Fatalf("cut %d: DroppedBytes = %d, want %d", cut, rep.DroppedBytes, cut-rep.ValidSize)
			}
		}
	}
}

// TestReplayCorruptRecord flips one payload bit in the middle record: the
// prefix survives, the corrupt record and everything after it is dropped,
// and the reason names ErrCorruptRecord.
func TestReplayCorruptRecord(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	path := writeSegment(t, dir, recs, Options{})
	bounds := recordBoundaries(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside record 1's payload (past its 8-byte frame header).
	data[bounds[1]+recordHeader+2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 || !rep.Truncated {
		t.Fatalf("report = %+v, want 1 record and a truncation", rep)
	}
	if want := ErrCorruptRecord.Error(); !contains(rep.Reason, want) {
		t.Fatalf("reason %q does not name %q", rep.Reason, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReplayBadHeader pins that a segment with a mangled header is dropped
// whole (ValidSize 0) and the reason names ErrBadHeader.
func TestReplayBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, testRecords(), Options{})
	data, _ := os.ReadFile(path)
	data[0] = 'X'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.ValidSize != 0 || rep.Records != 0 || rep.DroppedBytes != int64(len(data)) {
		t.Fatalf("report = %+v, want everything dropped", rep)
	}
	if !contains(rep.Reason, ErrBadHeader.Error()) {
		t.Fatalf("reason %q does not name ErrBadHeader", rep.Reason)
	}
}

// TestOpenAtContinues reopens a segment with a torn tail at its valid
// prefix and appends more: replay then sees the surviving prefix plus the
// new records, and the torn bytes are physically gone.
func TestOpenAtContinues(t *testing.T) {
	recs := testRecords()
	dir := t.TempDir()
	path := writeSegment(t, dir, recs, Options{})
	bounds := recordBoundaries(t, path)
	// Tear the last record in half.
	tear := bounds[2] + (bounds[3]-bounds[2])/2
	if err := os.Truncate(path, tear); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || !rep.Truncated || rep.ValidSize != bounds[2] {
		t.Fatalf("report = %+v, want 2 records valid to %d", rep, bounds[2])
	}
	l, err := OpenAt(OSFS(), path, rep.ValidSize, rep.Records, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	extra := Record{Kind: KindRemove, IDs: []int{9}}
	if err := l.Append(&extra); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 3 {
		t.Fatalf("Records = %d, want 3", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep2 := replayAll(t, path)
	if rep2.Truncated || rep2.Records != 3 {
		t.Fatalf("after continue: report = %+v", rep2)
	}
	if !reflect.DeepEqual(got[2], extra) {
		t.Fatalf("record 2 = %+v, want %+v", got[2], extra)
	}
}

// TestOpenAtZeroRestartsSegment pins the torn-header path: valid size 0
// rewrites the header and the segment is appendable again.
func TestOpenAtZeroRestartsSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	if err := os.WriteFile(path, []byte("LAF"), 0o644); err != nil { // torn header
		t.Fatal(err)
	}
	rep, err := Replay(OSFS(), path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValidSize != 0 || !rep.Truncated {
		t.Fatalf("report = %+v, want total drop", rep)
	}
	l, err := OpenAt(OSFS(), path, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindInsert, Vectors: [][]float32{{1}}}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep2 := replayAll(t, path)
	if rep2.Truncated || len(got) != 1 {
		t.Fatalf("restarted segment replay = %+v (%d records)", rep2, len(got))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Errorf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

// TestSyncPolicies pins fsync accounting per policy via the OnFsync hook:
// always fsyncs once per append, interval respects the window, off never
// fsyncs on append.
func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	count := func(opts Options, appends int) int {
		fsyncs := 0
		opts.OnFsync = func(time.Duration) { fsyncs++ }
		l, err := Create(OSFS(), filepath.Join(dir, opts.Sync.String()+".log"), opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{Kind: KindInsert, Vectors: [][]float32{{1}}}
		for i := 0; i < appends; i++ {
			if err := l.Append(&rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		return fsyncs
	}
	// always: header + 5 appends + close.
	if got := count(Options{Sync: SyncAlways}, 5); got != 7 {
		t.Errorf("always: %d fsyncs, want 7", got)
	}
	// off: never, not even on close.
	if got := count(Options{Sync: SyncOff}, 5); got != 0 {
		t.Errorf("off: %d fsyncs, want 0", got)
	}
	// interval with an enormous window: header + close only.
	if got := count(Options{Sync: SyncInterval, SyncInterval: time.Hour}, 5); got != 2 {
		t.Errorf("interval(1h): %d fsyncs, want 2", got)
	}
	// interval with a negative-effectively-zero window fsyncs per append
	// (time.Since(lastSync) >= tiny is always true).
	if got := count(Options{Sync: SyncInterval, SyncInterval: time.Nanosecond}, 5); got != 7 {
		t.Errorf("interval(1ns): %d fsyncs, want 7", got)
	}
}

// TestAppendHookAccounting pins OnAppend's byte accounting against the
// file's actual growth.
func TestAppendHookAccounting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.log")
	var hooked int64
	l, err := Create(OSFS(), path, Options{Sync: SyncOff, OnAppend: func(n int) { hooked += int64(n) }})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if want := l.Size() - HeaderSize; hooked != want {
		t.Fatalf("OnAppend saw %d bytes, log grew %d", hooked, want)
	}
	l.Close()
}

// TestEncodeRejects pins the encoder's validation: empty batches, ragged
// vectors and out-of-range ids never reach the disk.
func TestEncodeRejects(t *testing.T) {
	for name, rec := range map[string]Record{
		"empty-insert": {Kind: KindInsert},
		"empty-remove": {Kind: KindRemove},
		"zero-dim":     {Kind: KindInsert, Vectors: [][]float32{{}}},
		"ragged":       {Kind: KindInsert, Vectors: [][]float32{{1, 2}, {3}}},
		"negative-id":  {Kind: KindRemove, IDs: []int{-1}},
		"unknown-kind": {Kind: 9, IDs: []int{1}},
	} {
		if _, err := AppendRecord(nil, &rec); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}
