package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"lafdbscan"
	"lafdbscan/internal/vecmath"
)

// workload runs one benchmark workload against b: set-up, timed phase,
// correctness checks and, in traced runs, the per-layer probes.
type workload func(b *bench) error

// workloads are the benchmark's workloads by name; README.md says why each
// one was chosen.
var workloads = map[string]workload{
	"fit-ms":       fitMS,
	"stream-glove": streamGlove,
	"hnsw-glove":   hnswGlove,
}

const (
	// batch is the number of vectors per Insert call.
	batch = 16
	// snapshotEvery is how many rounds stream-glove journals between
	// snapshots, which bounds what recovery replays.
	snapshotEvery = 32

	gloveEps, gloveTau    = 0.4, 5
	msEps, msTau, msAlpha = 0.55, 5, 1.5

	// msARIFloor is the lowest ARI against exact DBSCAN that fit-ms's
	// LAF-DBSCAN labels may reach; hnswARIFloor is the repository's pinned
	// floor for DBSCAN over the HNSW graph.
	msARIFloor   = 0.8
	hnswARIFloor = 0.99

	// The GloVe workloads sample fixed corpora, while fit-ms draws a new
	// corpus from every seed (README.md says why).
	streamCorpus, hnswCorpus = 1, 2
)

// heldOut are a workload's vectors outside its fitted points, in three
// disjoint roles: single-vector predict probes, the batches of the insert
// stream (batch 0 is the set-up's warm-up mutation), and the batches the
// traced run's WAL probe journals.
type heldOut struct {
	probes, stream, walProbe [][]float32
}

// heldOutSizes are how many probe, stream and WAL-probe vectors a run
// holds out.
func (b *bench) heldOutSizes() (probes, stream, wal int) {
	return b.scaled(256, 16), b.scaled(64, 4) * batch, b.scaled(8, 2) * batch
}

// holdOut carves held-out vectors from vs.
func (b *bench) holdOut(vs [][]float32) (heldOut, error) {
	nProbe, nStream, nWal := b.heldOutSizes()
	if len(vs) < nProbe+nStream+nWal {
		return heldOut{}, fmt.Errorf("need %d held-out vectors, have %d", nProbe+nStream+nWal, len(vs))
	}
	return heldOut{
		probes:   vs[:nProbe],
		stream:   vs[nProbe : nProbe+nStream],
		walProbe: vs[nProbe+nStream : nProbe+nStream+nWal],
	}, nil
}

// gloveInputs draws n GloVe-like points to fit plus the held-out vectors
// from the fixed GloVe-like corpus numbered corpus, in an order drawn from
// --seed.
func (b *bench) gloveInputs(n int, corpus int64) ([][]float32, heldOut, error) {
	nProbe, nStream, nWal := b.heldOutSizes()
	vs := lafdbscan.GloVeLike(n+nProbe+nStream+nWal, corpus).Vectors
	rand.New(rand.NewSource(b.cfg.seed)).Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	h, err := b.holdOut(vs[n:])
	return vs[:n], h, err
}

// dbscanOpts configures exact DBSCAN, and is the base of every fit.
func (b *bench) dbscanOpts(eps float64, tau int) []lafdbscan.FitOption {
	return []lafdbscan.FitOption{
		lafdbscan.WithEps(eps), lafdbscan.WithTau(tau),
		lafdbscan.WithWorkers(b.workers), lafdbscan.WithSeed(b.cfg.seed),
	}
}

// fitMS is the paper's batch workload: LAF-DBSCAN over MS-MARCO-like
// 768-d passages, with the learned estimator gating an exact brute scan.
// The timed phase interleaves refits of the test split with insert and
// predict rounds on the set-up's model.
func fitMS(b *bench) error {
	data := lafdbscan.MSLike(b.scaled(7500, 300), b.cfg.seed)
	train, test, err := lafdbscan.Split(data, 0.8, b.cfg.seed)
	if err != nil {
		return err
	}
	points := test.Vectors
	h, err := b.holdOut(train.Vectors)
	if err != nil {
		return err
	}
	estCfg := lafdbscan.EstimatorConfig{TargetSize: len(points), MaxQueries: b.scaled(400, 20), Seed: b.cfg.seed}
	lafOpts := func(est lafdbscan.Estimator) []lafdbscan.FitOption {
		return append(b.dbscanOpts(msEps, msTau), lafdbscan.WithAlpha(msAlpha), lafdbscan.WithEstimator(est))
	}

	var (
		est              lafdbscan.Estimator
		model            *lafdbscan.Model
		trainS, overlayS []float64
	)
	// Two repetitions, not three: training the estimator takes most of
	// the workload's time.
	err = b.setup(2, func(_ int, sp ref) error {
		s, err := b.step(sp, "cardest.train", func() (err error) {
			est, err = lafdbscan.TrainRMIEstimator(train.Vectors, estCfg)
			return err
		})
		if err != nil {
			return err
		}
		trainS = append(trainS, s)
		if _, err := b.step(sp, "model.fit", func() (err error) {
			model, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodLAFDBSCAN, lafOpts(est)...)
			return err
		}); err != nil {
			return err
		}
		s, err = b.step(sp, "model.insert.warmup", func() error {
			_, err := model.Insert(b.ctx, h.stream[:batch])
			return err
		})
		overlayS = append(overlayS, s)
		return err
	})
	if err != nil {
		return err
	}
	b.set("cardest.train_s", median(trainS))
	b.set("model.overlay_build_s", median(overlayS))

	var exact *lafdbscan.Model
	s, err := b.step(ref{}, "cluster.exact_fit", func() (err error) {
		exact, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodDBSCAN, b.dbscanOpts(msEps, msTau)...)
		return err
	})
	if err != nil {
		return err
	}
	b.set("cluster.exact_fit_s", s)

	// Each step of the timed phase refits the test split once and then
	// runs four rounds on the set-up's model, so fits, predicts and inserts
	// are all spread over the whole phase and a slow episode of the host
	// lands on each of them alike.
	var (
		fits  phase
		first *lafdbscan.Result
		rs    roundStats
	)
	err = b.loop(b.timedPhase(), func(i int) error {
		var m *lafdbscan.Model
		if b.time(&fits, "model.fit", func() (err error) {
			m, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodLAFDBSCAN, lafOpts(est)...)
			return err
		}) == nil {
			if r := m.Result(); first == nil {
				first = r
			} else {
				b.check(r.RangeQueries == first.RangeQueries && r.SkippedQueries == first.SkippedQueries &&
					slices.Equal(r.Labels, first.Labels), "fit %d: query counts or labels differ from the first fit", i)
			}
		}
		for j := 0; j < 4; j++ {
			if err := b.round(model, model, h, 8, &rs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if first == nil {
		return errors.New("no fit succeeded")
	}
	b.set("fit_s", phaseMean(fits.ms)/1000)
	b.setFitCounts(first)
	if err := b.checkARI(exact.Labels(), first.Labels, msARIFloor); err != nil {
		return err
	}
	b.setRoundMetrics(&rs)

	// Incremental maintenance must equal a fresh fit on the final point set
	// (the parallel engine's equality contract, post-processing included).
	var fresh *lafdbscan.Model
	if _, err := b.step(ref{}, "verify.fresh_fit", func() (err error) {
		fresh, err = lafdbscan.Fit(b.ctx, rs.finalPoints(points, h), lafdbscan.MethodLAFDBSCAN, lafOpts(est)...)
		return err
	}); err != nil {
		return err
	}
	b.sameModel("maintained model vs fresh fit", model, fresh)
	if err := b.samePredictions("maintained model vs fresh fit", model, fresh, h.probes); err != nil {
		return err
	}
	if err := b.probeLayers(layerInputs{points: points, held: h, eps: msEps, tau: msTau, est: est, exact: exact}); err != nil {
		return err
	}
	return b.finish(&fits, &rs.preds, &rs.ins)
}

// streamGlove is write-heavy ingestion: exact DBSCAN over GloVe-like
// points wrapped in a DurableModel that fsyncs every journaled mutation.
// The timed phase is rounds of one 16-vector insert and eight
// single-vector predicts.
func streamGlove(b *bench) error {
	points, h, err := b.gloveInputs(b.scaled(3000, 200), streamCorpus)
	if err != nil {
		return err
	}
	var (
		fsyncMS  []float64
		appended []int
	)
	dopts := lafdbscan.DurableOptions{
		OnFsync:  func(d time.Duration) { fsyncMS = append(fsyncMS, float64(d)/float64(time.Millisecond)) },
		OnAppend: func(n int) { appended = append(appended, n) },
	}
	var (
		dm                    *lafdbscan.DurableModel
		dir                   string
		fitted                *lafdbscan.Result
		fitS, snapS, overlayS []float64
	)
	defer func() {
		if dm != nil {
			dm.Close()
		}
	}()
	err = b.setup(3, func(rep int, sp ref) error {
		if dm != nil {
			if err := dm.Destroy(); err != nil {
				return err
			}
		}
		dir = filepath.Join(b.dir, fmt.Sprintf("journal-%d", rep))
		var m *lafdbscan.Model
		s, err := b.step(sp, "model.fit", func() (err error) {
			m, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodDBSCAN, b.dbscanOpts(gloveEps, gloveTau)...)
			return err
		})
		if err != nil {
			return err
		}
		fitS, fitted = append(fitS, s), m.Result()
		s, err = b.step(sp, "wal.snapshot", func() (err error) {
			dm, err = lafdbscan.NewDurable(m, dir, dopts)
			return err
		})
		if err != nil {
			return err
		}
		snapS = append(snapS, s)
		s, err = b.step(sp, "model.insert.warmup", func() error {
			_, err := dm.Insert(b.ctx, h.stream[:batch])
			return err
		})
		overlayS = append(overlayS, s)
		return err
	})
	if err != nil {
		return err
	}
	b.set("fit_s", quantile(fitS, 0.25))
	b.set("wal.snapshot_s", median(snapS))
	b.set("model.overlay_build_s", median(overlayS))
	b.setFitCounts(fitted)

	model := dm.Model()
	fsyncMS, appended = fsyncMS[:0], appended[:0]
	rs, err := b.rounds(b.timedPhase(), model, dm, h, 8, func(i int) error {
		if i%snapshotEvery != snapshotEvery-1 {
			return nil
		}
		_, err := dm.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	b.setRoundMetrics(&rs)
	// Each round journals its insert and then its removal, so the insert
	// records are every other append.
	insertBytes := 0
	for i := 0; i < len(appended); i += 2 {
		insertBytes += appended[i]
	}
	b.set("wal.bytes_per_insert", float64(insertBytes)/float64(max(1, (len(appended)+1)/2)))
	b.set("wal.fsync_ms", mean(fsyncMS))

	// The journaled, incrementally maintained model must equal a fresh fit
	// on the final point set, and recovery must reproduce it bit for bit.
	var fresh *lafdbscan.Model
	if _, err := b.step(ref{}, "verify.fresh_fit", func() (err error) {
		fresh, err = lafdbscan.Fit(b.ctx, rs.finalPoints(points, h), lafdbscan.MethodDBSCAN, b.dbscanOpts(gloveEps, gloveTau)...)
		return err
	}); err != nil {
		return err
	}
	b.sameModel("maintained model vs fresh fit", model, fresh)
	if err := b.setARI(fresh.Labels(), model.Labels()); err != nil {
		return err
	}
	if err := b.samePredictions("maintained model vs fresh fit", model, fresh, h.probes); err != nil {
		return err
	}
	if err := dm.Close(); err != nil {
		return err
	}
	var rec *lafdbscan.DurableModel
	s, err := b.step(ref{}, "wal.recover", func() (err error) {
		rec, _, err = lafdbscan.OpenDurable(b.ctx, dir, lafdbscan.DurableOptions{})
		return err
	})
	if err != nil {
		return err
	}
	defer rec.Close()
	b.set("wal.recover_s", s)
	b.sameModel("recovered model vs live model", rec.Model(), model)
	if err := b.probeLayers(layerInputs{points: points, held: h, eps: gloveEps, tau: gloveTau}); err != nil {
		return err
	}
	return b.finish(&rs.preds, &rs.ins)
}

// hnswGlove is read-mostly work on the approximate index: DBSCAN over an
// HNSW graph, then rounds of one 16-vector insert and 64 single-vector
// predicts. The set-up's warm-up insert is the first mutation, which today
// swaps the graph for a brute-force scan.
func hnswGlove(b *bench) error {
	points, h, err := b.gloveInputs(b.scaled(2000, 200), hnswCorpus)
	if err != nil {
		return err
	}
	var (
		graph                           lafdbscan.RangeIndex
		model                           *lafdbscan.Model
		fitted                          *lafdbscan.Result
		buildS, buildMB, fitS, overlayS []float64
	)
	err = b.setup(3, func(_ int, sp ref) error {
		a0 := heapAllocs()
		s, err := b.step(sp, "hnsw.build", func() (err error) {
			graph, _, err = lafdbscan.Params{IndexBackend: lafdbscan.IndexBackendAuto, Seed: b.cfg.seed}.
				NewIndex(points, lafdbscan.MetricCosine)
			return err
		})
		if err != nil {
			return err
		}
		buildS, buildMB = append(buildS, s), append(buildMB, float64(heapAllocs()-a0)/(1<<20))
		s, err = b.step(sp, "model.fit", func() (err error) {
			model, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodDBSCAN,
				append(b.dbscanOpts(gloveEps, gloveTau), lafdbscan.WithIndex(graph))...)
			return err
		})
		if err != nil {
			return err
		}
		fitS, fitted = append(fitS, s), model.Result()
		s, err = b.step(sp, "model.insert.warmup", func() error {
			_, err := model.Insert(b.ctx, h.stream[:batch])
			return err
		})
		overlayS = append(overlayS, s)
		return err
	})
	if err != nil {
		return err
	}
	b.set("fit_s", quantile(fitS, 0.25))
	b.set("hnsw.build_s", median(buildS))
	b.set("hnsw.build_alloc_mb", median(buildMB))
	b.set("model.overlay_build_s", median(overlayS))
	b.setFitCounts(fitted)

	var exact *lafdbscan.Model
	s, err := b.step(ref{}, "cluster.exact_fit", func() (err error) {
		exact, err = lafdbscan.Fit(b.ctx, points, lafdbscan.MethodDBSCAN, b.dbscanOpts(gloveEps, gloveTau)...)
		return err
	})
	if err != nil {
		return err
	}
	b.set("cluster.exact_fit_s", s)
	if err := b.checkARI(exact.Labels(), fitted.Labels, hnswARIFloor); err != nil {
		return err
	}
	rs, err := b.rounds(b.timedPhase(), model, model, h, 64, nil)
	if err != nil {
		return err
	}
	b.setRoundMetrics(&rs)
	if err := b.probeLayers(layerInputs{points: points, held: h, eps: gloveEps, tau: gloveTau, exact: exact, graph: graph}); err != nil {
		return err
	}
	return b.finish(&rs.preds, &rs.ins)
}

// timedPhase is the length of the run's timed phase.
func (b *bench) timedPhase() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// windowIDs are the ids of the stream batch a model over n fitted points
// holds: the points after the fitted ones.
func windowIDs(n int) []int {
	ids := make([]int, batch)
	for k := range ids {
		ids[k] = n + k
	}
	return ids
}

// mutator is what a round phase mutates: a Model, or a DurableModel
// journaling in front of one.
type mutator interface {
	Insert(context.Context, [][]float32) (lafdbscan.UpdateReport, error)
	Remove(context.Context, []int) (lafdbscan.UpdateReport, error)
}

// roundStats is the outcome of a library round phase.
type roundStats struct {
	preds, ins phase
	promoted   int
	n          int // rounds run
	// last is the stream batch the model holds after the phase.
	last int
}

// finalPoints is the model's point set after the phase: the fitted points
// and the last stream batch.
func (rs *roundStats) finalPoints(points [][]float32, h heldOut) [][]float32 {
	return append(slices.Clone(points), h.stream[rs.last*batch:(rs.last+1)*batch]...)
}

// rounds is the timed phase of stream-glove and hnsw-glove: rounds back to
// back for d, each closed, untimed, by after when it is not nil.
func (b *bench) rounds(d time.Duration, m *lafdbscan.Model, mut mutator, h heldOut, nPredict int, after func(i int) error) (roundStats, error) {
	var rs roundStats
	err := b.loop(d, func(i int) error {
		if err := b.round(m, mut, h, nPredict, &rs); err != nil {
			return err
		}
		if after != nil {
			return after(i)
		}
		return nil
	})
	return rs, err
}

// round inserts the next stream batch into m through mut, makes nPredict
// single-vector Predict calls on the probes, and then, untimed, removes
// the previous batch, so every round sees a model of the same size however
// many rounds run. The model holds the fitted points and one stream batch
// between rounds.
func (b *bench) round(m *lafdbscan.Model, mut mutator, h heldOut, nPredict int, rs *roundStats) error {
	window := windowIDs(m.Len() - batch)
	k := (rs.n + 1) % (len(h.stream) / batch)
	vs := h.stream[k*batch : (k+1)*batch]
	if err := b.time(&rs.ins, "model.insert", func() error {
		rep, err := mut.Insert(b.ctx, vs)
		rs.promoted += rep.Promoted
		return err
	}); err != nil {
		return err
	}
	for j := 0; j < nPredict; j++ {
		q := h.probes[(rs.n*nPredict+j)%len(h.probes)]
		_ = b.time(&rs.preds, "model.predict", func() error { return predictOne(b.ctx, m, q) })
	}
	if _, err := mut.Remove(b.ctx, window); err != nil {
		return fmt.Errorf("removing the previous batch: %w", err)
	}
	rs.last = k
	rs.n++
	return nil
}

// setRoundMetrics records the end-to-end and per-layer metrics of a
// library round phase.
func (b *bench) setRoundMetrics(rs *roundStats) {
	b.set("predict_ms", phaseMean(rs.preds.ms))
	b.set("insert_ms", phaseMean(rs.ins.ms))
	b.setCallLayer("predict", &rs.preds)
	b.setCallLayer("insert", &rs.ins)
	b.set("model.promoted_per_insert", float64(rs.promoted)/float64(max(1, len(rs.ins.ms))))
}

// setFitCounts records the per-layer counts of the workload's fit.
func (b *bench) setFitCounts(res *lafdbscan.Result) {
	run, skipped := float64(res.RangeQueries), float64(res.SkippedQueries)
	cores := 0
	for _, c := range res.Core {
		if c {
			cores++
		}
	}
	b.set("index.range_queries", run)
	b.set("vecmath.dist_evals", run*float64(len(res.Labels)))
	b.set("core.skipped_queries", skipped)
	b.set("core.skip_ratio", skipped/max(1, run+skipped))
	b.set("cluster.clusters", float64(res.NumClusters))
	b.set("cluster.cores", float64(cores))
}

// predictOne makes one single-vector Predict call and checks that the
// label is Noise or one of the model's clusters.
func predictOne(ctx context.Context, m *lafdbscan.Model, q []float32) error {
	labels, err := m.Predict(ctx, [][]float32{q})
	if err != nil {
		return err
	}
	if l := labels[0]; l != lafdbscan.Noise && (l < 1 || l > m.NumClusters()) {
		return fmt.Errorf("label %d outside the model's %d clusters", l, m.NumClusters())
	}
	return nil
}

// underTest returns labels as the checks see them: unchanged, or, when the
// run injects the "labels" fault, with every tenth label shifted.
func (b *bench) underTest(labels []int) []int {
	if b.cfg.fault != "labels" {
		return labels
	}
	out := slices.Clone(labels)
	for i := 0; i < len(out); i += 10 {
		out[i] += 7
	}
	return out
}

// sameModel checks that got, the model under test, matches want label for
// label, core for core and in its cluster forest.
func (b *bench) sameModel(what string, got, want *lafdbscan.Model) {
	b.check(slices.Equal(b.underTest(got.Labels()), want.Labels()), "%s: labels differ", what)
	b.check(slices.Equal(got.CoreMask(), want.CoreMask()), "%s: core points differ", what)
	b.check(slices.Equal(got.Forest(), want.Forest()), "%s: cluster forests differ", what)
}

// samePredictions checks that got and want assign the probes identically.
func (b *bench) samePredictions(what string, got, want *lafdbscan.Model, probes [][]float32) error {
	g, err := got.Predict(b.ctx, probes)
	if err != nil {
		return err
	}
	w, err := want.Predict(b.ctx, probes)
	if err != nil {
		return err
	}
	b.check(slices.Equal(b.underTest(g), w), "%s: predictions differ", what)
	return nil
}

// setARI records ari: the ARI of the labels under test against exact
// DBSCAN's labels on the same points.
func (b *bench) setARI(exact, got []int) error {
	ari, err := lafdbscan.ARI(exact, b.underTest(got))
	if err != nil {
		return err
	}
	b.set("ari", ari)
	return nil
}

// checkARI records ari and checks it against floor.
func (b *bench) checkARI(exact, got []int, floor float64) error {
	if err := b.setARI(exact, got); err != nil {
		return err
	}
	b.check(b.values["ari"] >= floor, "ARI %.4f is below the floor %.2f", b.values["ari"], floor)
	return nil
}

// normalized returns unit-norm copies of vs, computed as the server
// normalizes what it ingests.
func normalized(vs [][]float32) [][]float32 {
	out := make([][]float32, len(vs))
	for i, v := range vs {
		out[i] = vecmath.Normalized(v)
	}
	return out
}
