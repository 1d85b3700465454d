package lafdbscan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"lafdbscan/internal/wal"
	"lafdbscan/internal/wal/walfs"
)

// durableEngines enumerates the engine configurations the crash matrix
// pins: the equality contract (maintenance equals a fresh fit) makes
// crash-replay testable for every method. The DBSCAN++ and LAF-DBSCAN++
// rows' generation-0 snapshot holds the sampled model, and recovery
// replays the switch to the exact counterpart from the journal. The LAF
// legs use the RMI estimator because it is the only estimator kind that
// survives Model.Save (a recovered model must replay with the same gate
// the live one had).
func durableEngines(t testing.TB, train [][]float32) []struct {
	name   string
	method Method
	params Params
} {
	t.Helper()
	est, err := TrainRMIEstimator(train, EstimatorConfig{
		MaxQueries: 80, Hidden: []int{16, 8}, Epochs: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		method Method
		params Params
	}{
		{"dbscan-default", MethodDBSCAN, Params{Eps: 0.4, Tau: 4}},
		{"dbscan-parallel-wave", MethodDBSCAN, Params{Eps: 0.4, Tau: 4, Workers: 2, WaveSize: 7}},
		{"laf-parallel-pp", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7, Workers: 2, WaveSize: 16}},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7}},
		{"laf-dbscan++-pp", MethodLAFDBSCANPP, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, SampleFraction: 0.5, Seed: 7, Workers: 2, WaveSize: 16}},
	}
}

// modelState is a deep capture of everything the equality contract pins.
type modelState struct {
	points   [][]float32
	labels   []int
	cores    []bool
	forest   []int32
	clusters int
}

func captureState(m *Model) modelState {
	return modelState{
		points:   m.snapshotPoints(),
		labels:   slices.Clone(m.Labels()),
		cores:    slices.Clone(m.CoreMask()),
		forest:   slices.Clone(m.Forest()),
		clusters: m.NumClusters(),
	}
}

// assertState pins a recovered model bit-identical to a recorded state of
// the uninterrupted history: same points (float-exact), labels, cores,
// forest and cluster count.
func assertState(t *testing.T, m *Model, want modelState, stage string) {
	t.Helper()
	if m.Len() != len(want.points) {
		t.Fatalf("%s: Len = %d, want %d", stage, m.Len(), len(want.points))
	}
	if !slices.EqualFunc(m.snapshotPoints(), want.points, slices.Equal[[]float32]) {
		t.Fatalf("%s: recovered points diverged from history", stage)
	}
	if got := m.Labels(); !slices.Equal(got, want.labels) {
		ari, _ := ARI(want.labels, got)
		t.Fatalf("%s: labels diverged from history (ARI %.4f)\n got: %v\nwant: %v",
			stage, ari, head(got), head(want.labels))
	}
	if !slices.Equal(m.CoreMask(), want.cores) {
		t.Fatalf("%s: core mask diverged from history", stage)
	}
	if !slices.Equal(m.Forest(), want.forest) {
		t.Fatalf("%s: forest diverged from history", stage)
	}
	if m.NumClusters() != want.clusters {
		t.Fatalf("%s: clusters = %d, want %d", stage, m.NumClusters(), want.clusters)
	}
}

// pointMirror is a pure-Go model of the journal's point-set semantics,
// independent of the clustering code: inserts append, removes drop the
// named indices and compact preserving order. History construction checks
// the live model against it so the crash matrix inherits an independently
// derived expectation for what each replay prefix must contain.
type pointMirror struct{ points [][]float32 }

func (p *pointMirror) insert(vectors [][]float32) {
	for _, v := range vectors {
		p.points = append(p.points, slices.Clone(v))
	}
}

func (p *pointMirror) remove(ids []int) {
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	kept := p.points[:0]
	for i, v := range p.points {
		if !drop[i] {
			kept = append(kept, v)
		}
	}
	p.points = slices.Clip(kept)
}

// durableHistory is one scripted run: fit, three mutations, an explicit
// snapshot, two more mutations, close — captured as per-record states plus
// two directory images (before and after the snapshot generation roll).
type durableHistory struct {
	states []modelState // states[i] = after i journaled records (0..5)
	dirA   string       // snap-0 + wal-0 holding records 1..3
	dirB   string       // snap-3 + wal-3 holding records 4..5
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func buildHistory(t *testing.T, method Method, params Params, vectors [][]float32) durableHistory {
	t.Helper()
	ctx := context.Background()
	base := vectors[:80]
	muts := []struct {
		vectors [][]float32
		ids     []int
	}{
		{vectors: vectors[80:92]},
		{vectors: vectors[92:110]},
		{ids: []int{3, 17, 85}},
		{vectors: vectors[110:122]},
		{ids: []int{0, 50, 101}},
	}

	model, err := FitParams(ctx, slices.Clone(base), method, params)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mirror := &pointMirror{}
	mirror.insert(base)
	h := durableHistory{dirA: t.TempDir(), dirB: t.TempDir()}
	record := func(stage string) {
		st := captureState(d.Model())
		if !slices.EqualFunc(st.points, mirror.points, slices.Equal[[]float32]) {
			t.Fatalf("%s: model points diverged from the pure-Go mirror", stage)
		}
		h.states = append(h.states, st)
	}
	record("after fit")
	for i, mut := range muts {
		if mut.ids != nil {
			if _, err := d.Remove(ctx, mut.ids); err != nil {
				t.Fatalf("mutation %d: %v", i+1, err)
			}
			mirror.remove(mut.ids)
		} else {
			if _, err := d.Insert(ctx, mut.vectors); err != nil {
				t.Fatalf("mutation %d: %v", i+1, err)
			}
			mirror.insert(mut.vectors)
		}
		record(fmt.Sprintf("after mutation %d", i+1))
		if i == 2 {
			copyDir(t, dir, h.dirA)
			if _, err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, dir, h.dirB)
	return h
}

// segmentIn finds the directory's single WAL segment and its record
// boundaries (byte offsets where a cut leaves only whole records).
func segmentIn(t *testing.T, dir string) (name string, raw []byte, bounds []int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if kind, _, ok := parseGen(e.Name()); ok && kind == "wal" {
			if name != "" {
				t.Fatalf("dir %s has segments %s and %s, want one", dir, name, e.Name())
			}
			name = e.Name()
		}
	}
	if name == "" {
		t.Fatalf("no WAL segment in %s", dir)
	}
	raw, err = os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	bounds = []int64{wal.HeaderSize}
	off := int64(wal.HeaderSize)
	for off < int64(len(raw)) {
		_, n, err := wal.DecodeRecord(raw[off:])
		if err != nil {
			t.Fatalf("segment %s offset %d: %v", name, off, err)
		}
		off += int64(n)
		bounds = append(bounds, off)
	}
	return name, raw, bounds
}

// sweepCuts picks the cut offsets: every byte of the segment in the full
// run; record boundaries, their one-byte neighbourhoods, mid-record points
// and the header edge under -short.
func sweepCuts(total int64, bounds []int64) []int64 {
	if !testing.Short() {
		cuts := make([]int64, 0, total+1)
		for c := int64(0); c <= total; c++ {
			cuts = append(cuts, c)
		}
		return cuts
	}
	pick := map[int64]bool{0: true, 1: true, wal.HeaderSize - 1: true}
	for i, b := range bounds {
		pick[b] = true
		if i+1 < len(bounds) {
			next := bounds[i+1]
			pick[b+1] = true
			pick[(b+next)/2] = true
			pick[next-1] = true
		}
	}
	cuts := make([]int64, 0, len(pick))
	for c := range pick {
		if c >= 0 && c <= total {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	return cuts
}

// TestCrashMatrix is the headline property test: for two directory images
// of a scripted history (one per snapshot generation), truncate the WAL
// segment at every byte offset, reopen, and require the recovered model to
// be bit-identical to the uninterrupted history's state at the surviving
// record prefix. Boundary cuts must recover cleanly and accept further
// appends; mid-record and mid-header cuts must report the truncation with
// the dropped byte count. Each distinct prefix is also pinned against a
// fresh Fit on its point set. The full byte sweep runs nightly; -short
// samples boundaries, their neighbours and mid-record offsets.
func TestCrashMatrix(t *testing.T) {
	data := GenerateMixture("durable-crash", MixtureConfig{
		N: 140, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 29,
	})
	ctx := context.Background()
	for _, eng := range durableEngines(t, data.Vectors) {
		t.Run(eng.name, func(t *testing.T) {
			h := buildHistory(t, eng.method, eng.params, data.Vectors)
			for _, image := range []struct {
				name       string
				dir        string
				basePrefix int
			}{
				{"gen0", h.dirA, 0},
				{"gen3", h.dirB, 3},
			} {
				t.Run(image.name, func(t *testing.T) {
					segName, raw, bounds := segmentIn(t, image.dir)
					freshChecked := map[int]bool{}
					for _, cut := range sweepCuts(int64(len(raw)), bounds) {
						work := t.TempDir()
						copyDir(t, image.dir, work)
						if err := walfs.Chop(filepath.Join(work, segName), cut); err != nil {
							t.Fatal(err)
						}
						dm, rep, err := OpenDurable(ctx, work, DurableOptions{})
						if err != nil {
							t.Fatalf("cut %d: %v", cut, err)
						}
						recs := 0
						for i := 1; i < len(bounds); i++ {
							if bounds[i] <= cut {
								recs = i
							}
						}
						stage := fmt.Sprintf("cut %d (%d records)", cut, recs)
						if rep.Records != int64(recs) {
							t.Fatalf("%s: replayed %d records", stage, rep.Records)
						}
						want := h.states[image.basePrefix+recs]
						assertState(t, dm.Model(), want, stage)
						if !freshChecked[recs] {
							freshChecked[recs] = true
							assertMatchesFreshFit(t, dm.Model(), stage)
						}
						atBoundary := cut >= wal.HeaderSize && cut == bounds[recs]
						if atBoundary {
							if rep.Truncated {
								t.Fatalf("%s: clean cut reported truncated: %+v", stage, rep)
							}
							// A cleanly recovered journal must keep accepting
							// mutations on the same segment.
							if _, err := dm.Insert(ctx, [][]float32{slices.Clone(want.points[0])}); err != nil {
								t.Fatalf("%s: append after recovery: %v", stage, err)
							}
							if got := dm.Stats().SegmentRecords; got != int64(recs)+1 {
								t.Fatalf("%s: segment has %d records after append, want %d", stage, got, recs+1)
							}
						} else {
							if !rep.Truncated || rep.Reason == "" {
								t.Fatalf("%s: torn cut not reported: %+v", stage, rep)
							}
							wantDropped := cut
							if cut >= wal.HeaderSize {
								wantDropped = cut - bounds[recs]
							}
							if rep.DroppedBytes != wantDropped {
								t.Fatalf("%s: DroppedBytes = %d, want %d", stage, rep.DroppedBytes, wantDropped)
							}
						}
						if err := dm.Close(); err != nil {
							t.Fatalf("%s: close: %v", stage, err)
						}
					}
				})
			}
		})
	}
}

// TestDurableBasic walks the happy path: journal layout on create, stats,
// explicit snapshot with compaction, refusing to mutate after close, full
// recovery equality, and refusing to re-seed an existing journal.
func TestDurableBasic(t *testing.T) {
	data := GenerateMixture("durable-basic", MixtureConfig{
		N: 120, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 31,
	})
	ctx := context.Background()
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:90]), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustFiles := func(want ...string) {
		t.Helper()
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range names {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("journal holds %v, want %v", got, want)
		}
	}
	mustFiles(snapName(0), walSegName(0))

	if _, err := d.Insert(ctx, data.Vectors[90:110]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(ctx, []int{2, 40}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.LSN != 2 || st.SnapshotLSN != 0 || st.SegmentRecords != 2 {
		t.Fatalf("stats = %+v, want LSN 2 on snapshot 0", st)
	}
	info, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN != 2 || info.Bytes <= 0 || info.Compacted != 2 {
		t.Fatalf("snapshot info = %+v, want LSN 2 compacting 2 files", info)
	}
	mustFiles(snapName(2), walSegName(2))
	if _, err := d.Insert(ctx, data.Vectors[110:]); err != nil {
		t.Fatal(err)
	}
	want := captureState(d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := d.Insert(ctx, data.Vectors[:1]); !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("insert after close: %v, want ErrDurableClosed", err)
	}

	re, rep, err := OpenDurable(ctx, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.SnapshotLSN != 2 || rep.Records != 1 || rep.Truncated {
		t.Fatalf("recovery report = %+v, want 1 clean record on snapshot 2", rep)
	}
	assertState(t, re.Model(), want, "recovered")

	if _, err := NewDurable(model, dir, DurableOptions{}); err == nil ||
		!strings.Contains(err.Error(), "OpenDurable") {
		t.Fatalf("NewDurable on a live journal = %v, want refusal", err)
	}
}

// TestDurableAutoSnapshot pins the compaction trigger: SnapshotEvery rolls
// the generation as soon as the active segment reaches the threshold, and
// recovery afterwards needs only the newest generation.
func TestDurableAutoSnapshot(t *testing.T) {
	data := GenerateMixture("durable-auto", MixtureConfig{
		N: 120, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 37,
	})
	ctx := context.Background()
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:90]), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	var snapLSNs []int64
	d, err := NewDurable(model, dir, DurableOptions{
		SnapshotEvery: 2,
		OnSnapshot:    func(lsn int64) { snapLSNs = append(snapLSNs, lsn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Insert(ctx, data.Vectors[90+10*i:100+10*i]); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(snapLSNs, []int64{0, 2}) {
		t.Fatalf("snapshots at LSNs %v, want [0 2]", snapLSNs)
	}
	st := d.Stats()
	if st.LSN != 3 || st.SnapshotLSN != 2 || st.SegmentRecords != 1 || st.Snapshots != 2 {
		t.Fatalf("stats = %+v, want LSN 3 on snapshot 2", st)
	}
	want := captureState(d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, rep, err := OpenDurable(ctx, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.SnapshotLSN != 2 || rep.Records != 1 {
		t.Fatalf("recovery report = %+v, want 1 record on snapshot 2", rep)
	}
	assertState(t, re.Model(), want, "recovered")
}

// TestDurableSnapshotFallback corrupts the newest snapshot and requires
// recovery to fall back to the previous generation and chain both WAL
// segments on top of it — reconstructing the exact same final state — and
// to fail with a named error (never a panic) when every snapshot is bad.
func TestDurableSnapshotFallback(t *testing.T) {
	data := GenerateMixture("durable-fallback", MixtureConfig{
		N: 140, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 41,
	})
	h := buildHistory(t, MethodDBSCAN, Params{Eps: 0.4, Tau: 4}, data.Vectors)
	// Merge both generation images: snap-0 + wal-0 (records 1..3) and
	// snap-3 + wal-3 (records 4..5) — the layout that exists in the window
	// where a newer snapshot committed but compaction has not run.
	dir := t.TempDir()
	copyDir(t, h.dirA, dir)
	copyDir(t, h.dirB, dir)

	if err := walfs.FlipBit(filepath.Join(dir, snapName(3)), 0, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dm, rep, err := OpenDurable(ctx, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotLSN != 0 || rep.SnapshotsDropped != 1 || rep.Records != 5 || rep.Truncated {
		t.Fatalf("fallback report = %+v, want 5 records chained on snapshot 0", rep)
	}
	assertState(t, dm.Model(), h.states[5], "chained recovery")
	dm.Close()

	// Every snapshot corrupt: a named error, not a panic or a zero model.
	dir2 := t.TempDir()
	copyDir(t, h.dirA, dir2)
	copyDir(t, h.dirB, dir2)
	if err := walfs.FlipBit(filepath.Join(dir2, snapName(0)), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := walfs.FlipBit(filepath.Join(dir2, snapName(3)), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(ctx, dir2, DurableOptions{}); err == nil ||
		!strings.Contains(err.Error(), "failed to load") {
		t.Fatalf("all-corrupt open = %v, want load failure", err)
	}
}

// TestDurableAnnulment pins the plan-before-journal order: a mutation the
// model rejects, or one whose context is already cancelled, fails in its
// plan and writes nothing to the journal (not a record that is later
// taken back), so replay and the live model never diverge.
func TestDurableAnnulment(t *testing.T) {
	data := GenerateMixture("durable-annul", MixtureConfig{
		N: 110, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 43,
	})
	ctx := context.Background()
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:90]), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	fsys := walfs.New(wal.OSFS())
	d, err := NewDurable(model, dir, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(ctx, data.Vectors[90:100]); err != nil {
		t.Fatal(err)
	}
	written := fsys.Written()
	if _, err := d.Insert(ctx, [][]float32{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-dimension insert must be rejected")
	}
	if _, err := d.Remove(ctx, []int{10_000}); err == nil {
		t.Fatal("out-of-range remove must be rejected")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.Insert(cancelled, data.Vectors[100:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("insert under a cancelled context: error = %v, want context.Canceled", err)
	}
	if got := fsys.Written(); got != written {
		t.Fatalf("rejected and cancelled mutations wrote %d bytes, want none", got-written)
	}
	if st := d.Stats(); st.LSN != 1 || st.SegmentRecords != 1 {
		t.Fatalf("stats after rejected mutations = %+v, want LSN 1", st)
	}
	if _, err := d.Insert(ctx, data.Vectors[100:]); err != nil {
		t.Fatal(err)
	}
	want := captureState(d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, rep, err := OpenDurable(ctx, dir, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.Records != 2 {
		t.Fatalf("recovery replayed %d records, want 2 (rejected ones must not reach the journal)", rep.Records)
	}
	assertState(t, re.Model(), want, "recovered")
}

// TestDurableRetrainFailureKeepsRecord pins that a failed estimator
// retrain is no rejection: the Insert that tripped it is applied, so its
// record must stay in the journal (the LSN advances), and recovery, whose
// replay fails the same retrain, must count it as applied and rebuild the
// live model.
func TestDurableRetrainFailureKeepsRecord(t *testing.T) {
	data := GenerateMixture("durable-retrain", MixtureConfig{
		N: 100, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 53,
	})
	ctx := context.Background()
	engine := durableEngines(t, data.Vectors[:90])[2]
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:90]), engine.method, engine.params)
	if err != nil {
		t.Fatal(err)
	}
	trainErr := errors.New("no training data today")
	opts := DurableOptions{Retrain: &RetrainPolicy{
		After: 1,
		Train: func(context.Context, [][]float32) (Estimator, error) { return nil, trainErr },
	}}
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Insert(ctx, data.Vectors[90:])
	if !errors.Is(err, ErrRetrainFailed) || !errors.Is(err, trainErr) {
		t.Fatalf("insert error = %v, want ErrRetrainFailed wrapping the Train error", err)
	}
	if rep.Inserted != 10 || rep.Retrained {
		t.Fatalf("report = %+v, want the applied 10-point insert and no retrain", rep)
	}
	if st := d.Stats(); st.LSN != 1 || st.SegmentRecords != 1 {
		t.Fatalf("stats = %+v, want the applied record kept at LSN 1", st)
	}
	want := captureState(d.Model())
	if len(want.points) != 100 {
		t.Fatalf("live model holds %d points, want 100", len(want.points))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, rrep, err := OpenDurable(ctx, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rrep.Records != 1 || rrep.Inserted != 10 {
		t.Fatalf("recovery = %+v, want the one 10-point record replayed", rrep)
	}
	assertState(t, re.Model(), want, "recovered")
}

// TestDurableCrashMidStream runs the walfs crash model end to end: the
// write budget dies partway through a batch, the in-memory model keeps
// running ahead of the disk, and a reboot onto a healthy filesystem
// recovers exactly the committed prefix with the tear reported.
func TestDurableCrashMidStream(t *testing.T) {
	data := GenerateMixture("durable-crashfs", MixtureConfig{
		N: 140, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 47,
	})
	ctx := context.Background()
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:90]), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	fs := walfs.New(wal.OSFS())
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(ctx, data.Vectors[90:102]); err != nil {
		t.Fatal(err)
	}
	committed := captureState(d.Model())

	fs.CrashAfter(10) // the next record's write tears after 10 bytes
	if _, err := d.Insert(ctx, data.Vectors[102:120]); err != nil {
		t.Fatal(err) // acknowledged: the kernel took the bytes it will drop
	}
	if _, err := d.Remove(ctx, []int{5}); err != nil {
		t.Fatal(err) // fully evaporates
	}
	if !fs.Dead() {
		t.Fatal("crash budget never tripped")
	}
	if d.Model().Len() != len(committed.points)+18-1 {
		t.Fatalf("in-memory model must run ahead of the dead disk, Len = %d", d.Model().Len())
	}
	d.Close()

	re, rep, err := OpenDurable(ctx, dir, DurableOptions{}) // healthy disk
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.Records != 1 || !rep.Truncated || !strings.Contains(rep.Reason, "torn") {
		t.Fatalf("recovery report = %+v, want 1 record and a torn tail", rep)
	}
	assertState(t, re.Model(), committed, "rebooted")
	assertMatchesFreshFit(t, re.Model(), "rebooted")
}

// TestDurableConcurrentSave pins the consistent-cut contract under -race:
// Model.Save taken while durable mutations and snapshots run concurrently
// always captures a loadable model whose size is one of the batch-boundary
// sizes — never a half-applied batch — and the journal recovers the final
// state exactly.
func TestDurableConcurrentSave(t *testing.T) {
	data := GenerateMixture("durable-concurrent", MixtureConfig{
		N: 140, Dim: 8, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 53,
	})
	ctx := context.Background()
	const baseN, batches, batchSize = 100, 8, 5
	model, err := FitParams(ctx, slices.Clone(data.Vectors[:baseN]), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	validLens := make(map[int]bool, batches+1)
	for k := 0; k <= batches; k++ {
		validLens[baseN+k*batchSize] = true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := d.Model().Save(&buf); err != nil {
					t.Errorf("concurrent save: %v", err)
					return
				}
				snap, err := LoadModel(&buf)
				if err != nil {
					t.Errorf("concurrent save not loadable: %v", err)
					return
				}
				if !validLens[snap.Len()] {
					t.Errorf("snapshot cut mid-batch: Len = %d", snap.Len())
					return
				}
			}
		}()
	}
	for k := 0; k < batches; k++ {
		off := baseN + k*batchSize
		if _, err := d.Insert(ctx, data.Vectors[off:off+batchSize]); err != nil {
			t.Fatal(err)
		}
		if k == batches/2 {
			if _, err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	want := captureState(d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDurable(ctx, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertState(t, re.Model(), want, "recovered")
	assertMatchesFreshFit(t, re.Model(), "recovered")
}

// TestDurableDestroy pins that Destroy removes every journal file while
// leaving foreign files (and therefore the directory) alone.
func TestDurableDestroy(t *testing.T) {
	data := GenerateMixture("durable-destroy", MixtureConfig{
		N: 100, Dim: 8, Clusters: 2, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 59,
	})
	ctx := context.Background()
	model, err := FitParams(ctx, slices.Clone(data.Vectors), MethodDBSCAN, Params{Eps: 0.4, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	d, err := NewDurable(model, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Destroy(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "README" {
		t.Fatalf("destroy left %v, want only the foreign README", entries)
	}
}
