package lafdbscan

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"lafdbscan/internal/core"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// A FitOption configures Fit. Options are the growing surface of the model
// API — each one sets a single named knob — while the flat Params struct
// is what Cluster and FitParams take.
// Every option maps onto a Params field, so Fit and Cluster accept and
// reject exactly the same configurations (Params.Validate runs on the
// assembled value either way).
type FitOption func(*Params)

// WithEps sets the cosine-distance (or, under WithMetric(MetricEuclidean),
// Euclidean) range-query threshold.
func WithEps(eps float64) FitOption { return func(p *Params) { p.Eps = eps } }

// WithTau sets the minimum neighbor count (including the point itself) for
// a point to be core.
func WithTau(tau int) FitOption { return func(p *Params) { p.Tau = tau } }

// WithAlpha sets LAF's error factor (predicted core when the estimated
// cardinality is at least Alpha*Tau).
func WithAlpha(alpha float64) FitOption { return func(p *Params) { p.Alpha = alpha } }

// WithEstimator supplies the cardinality estimator the LAF methods gate
// range queries with. Required for MethodLAFDBSCAN and MethodLAFDBSCANPP.
func WithEstimator(est Estimator) FitOption { return func(p *Params) { p.Estimator = est } }

// WithoutPostProcessing disables LAF's repair pass (ablation).
func WithoutPostProcessing() FitOption { return func(p *Params) { p.DisablePostProcessing = true } }

// WithSampleFraction sets the ++ variants' sample fraction in (0, 1].
func WithSampleFraction(frac float64) FitOption { return func(p *Params) { p.SampleFraction = frac } }

// WithBranching sets KNN-BLOCK DBSCAN's k-means tree fan-out.
func WithBranching(b int) FitOption { return func(p *Params) { p.Branching = b } }

// WithLeavesRatio sets KNN-BLOCK DBSCAN's examined-leaves fraction.
func WithLeavesRatio(r float64) FitOption { return func(p *Params) { p.LeavesRatio = r } }

// WithCoverTreeBase sets BLOCK-DBSCAN's cover tree expansion base.
func WithCoverTreeBase(base float64) FitOption { return func(p *Params) { p.Base = base } }

// WithRNT caps BLOCK-DBSCAN's approximate inter-block distance iterations.
func WithRNT(rnt int) FitOption { return func(p *Params) { p.RNT = rnt } }

// WithRho sets ρ-approximate DBSCAN's approximation factor.
func WithRho(rho float64) FitOption { return func(p *Params) { p.Rho = rho } }

// WithMetric selects the distance function for the metric-aware methods
// (MethodDBSCAN and MethodLAFDBSCAN; the others are hardwired to cosine).
func WithMetric(m DistanceMetric) FitOption { return func(p *Params) { p.Metric = m } }

// WithSeed seeds every randomized component.
func WithSeed(seed int64) FitOption { return func(p *Params) { p.Seed = seed } }

// WithWorkers sets how many cores the fit runs on (0 or WorkersAuto = all
// cores, 1 = one core); labels are identical at every setting. Predict and
// maintenance also size their query pools from it.
func WithWorkers(w int) FitOption { return func(p *Params) { p.Workers = w } }

// WithWaveSize bounds the engines' neighbor-discovery memory.
func WithWaveSize(w int) FitOption { return func(p *Params) { p.WaveSize = w } }

// WithIndex supplies a pre-built shared range index (see Params.Index). The
// fitted model retains it for prediction.
func WithIndex(idx RangeIndex) FitOption { return func(p *Params) { p.Index = idx } }

// WithIndexBackend selects the range-index implementation by registry name
// (see Params.IndexBackend): "" keeps the exact default, IndexBackendAuto
// selects the HNSW graph, and an explicit name ("brute" or "hnsw") is used
// as is.
func WithIndexBackend(name string) FitOption { return func(p *Params) { p.IndexBackend = name } }

// WithEfSearch sets the HNSW recall knob (see Params.EfSearch).
func WithEfSearch(ef int) FitOption { return func(p *Params) { p.EfSearch = ef } }

// Model is a fitted clustering: the labels plus every expensive artifact the
// run produced — the core-point set, the canonical cluster forest, the range
// index, and (for the LAF methods) the trained estimator. Where Cluster
// throws these away after labeling one batch, a Model keeps them so new
// points can be assigned to the existing clusters in O(one range query)
// each (Predict), so the clustering can evolve with the data through
// Insert and Remove without re-clustering from scratch, and so the whole
// thing can be persisted (Save/LoadModel) and served (lafserve's
// /v1/models).
//
// # Concurrency
//
// All methods are safe for concurrent use. Reads — Predict, Labels, Save
// and every other accessor — run under a shared read lock and may proceed
// concurrently with each other. Insert and Remove serialize on a mutation
// mutex and run in three steps: a plan under the read lock (validation and
// every range query), the journal of a DurableModel with no model lock
// held, and a commit under the write lock. Reads therefore keep running
// through a mutation's range queries and its fsync, and a concurrent
// Predict observes either the state before an update or the state after
// it, never a half-applied one. A mutation that fails (context
// cancellation included) leaves the model exactly as it was: all range
// queries run before any state is touched.
type Model struct {
	// mutating serializes mutations (apply), so the state a plan reads
	// under mu's read lock is the state its commit writes.
	mutating sync.Mutex
	// mu orders reads (RLock: Predict, accessors, Save, a mutation's plan)
	// against the write-locked commits (apply, SetRetrainPolicy).
	mu sync.RWMutex
	// method and params are the method the model's labels are a fit of and
	// its effective parameters (LAF's Alpha default resolved). The first
	// mutation switches both to the exact counterpart (see
	// model_incremental.go).
	method Method
	params Params
	points [][]float32
	labels []int
	core   []bool
	forest []int32
	index  RangeIndex
	// indexBackend is the registry name the model's index was resolved to
	// ("" when the caller supplied a pre-built index). The first mutation
	// resets it to the exact scan the maintenance overlay installs, over
	// its own copy of the points.
	indexBackend string
	result       *Result

	// fit holds the fit's neighbor facts (core.Facts) until the first
	// mutation derives the overlay from them with no range query; nil for
	// models whose first mutation runs an engine pass for them instead
	// (see overlayFromFit).
	fit *core.Facts
	// inc is the incremental-maintenance overlay, built lazily by the
	// first Insert or Remove from the engine's facts: fit, or one engine
	// pass when fit is nil (see model_incremental.go).
	inc *incState
	// updates counts applied point mutations over the model's lifetime
	// (persisted); staleness counts them since the last estimator
	// (re)train, driving the RetrainPolicy.
	updates   int64
	staleness int
	retrain   RetrainPolicy
}

// Fit clusters points with the named method and returns the fitted model.
// The labels are bit-identical to the corresponding Cluster call with the
// same knobs and seed — Fit runs the same engines and additionally retains
// their artifacts. Options assemble a Params value, validated once by the
// same check as Cluster's.
func Fit(ctx context.Context, points [][]float32, m Method, opts ...FitOption) (*Model, error) {
	var p Params
	for _, o := range opts {
		o(&p)
	}
	return FitParams(ctx, points, m, p)
}

// FitParams is Fit over a flat Params value, the bridge for callers that
// already hold one (the CLI tools, the lafserve job specs).
func FitParams(ctx context.Context, points [][]float32, m Method, p Params) (*Model, error) {
	if err := validate(m, p); err != nil {
		return nil, err
	}
	// The specialized methods (KNN-BLOCK, BLOCK-DBSCAN, ρ-approximate)
	// build their own structures and never read p.Index; prediction still
	// needs a plain range index over the training points, so one is built
	// (or the caller's shared one retained) for every method, under the
	// metric the fit's range queries run under.
	idx, resolvedBackend, err := indexFor(points, m, p)
	if err != nil {
		return nil, err
	}
	p.Index = idx
	var facts *core.Facts
	if overlayFromFit(m, p) {
		facts = new(core.Facts)
	}
	res, err := run(ctx, points, m, p, facts)
	if err != nil {
		return nil, err
	}
	if (m == MethodLAFDBSCAN || m == MethodLAFDBSCANPP) && p.Alpha == 0 {
		p.Alpha = 1 // the dispatch's neutral default, made visible
	}
	return newModel(m, p, points, res, resolvedBackend, facts), nil
}

// overlayFromFit reports whether a fit of m with p keeps the engine's
// neighbor facts for the first mutation's overlay: the traversal methods
// on the exact scan under the model's metric, whose lists are the ones
// the overlay's own index would return.
func overlayFromFit(m Method, p Params) bool {
	if m != MethodDBSCAN && m != MethodLAFDBSCAN {
		return false
	}
	b, ok := p.Index.(*index.BruteForce)
	return ok && b.Measures(modelMetric(m, p.Metric).Func())
}

// newModel wraps a finished clustering into a Model. p.Index must be the
// prediction index over points; indexBackend is the registry name it was
// resolved to ("" for a caller-supplied index); fit is the run's neighbor
// facts, or nil.
func newModel(m Method, p Params, points [][]float32, res *Result, indexBackend string, fit *core.Facts) *Model {
	return &Model{
		method:       m,
		params:       p,
		points:       points,
		labels:       res.Labels,
		core:         res.Core,
		forest:       res.Forest,
		index:        p.Index,
		indexBackend: indexBackend,
		result:       res,
		fit:          fit,
	}
}

// Method returns the clustering method the model's labels are a fit of:
// the fitted method until the first Insert/Remove, and from then on its
// exact counterpart — MethodLAFDBSCAN for the LAF methods, MethodDBSCAN for
// every other (see Insert).
func (m *Model) Method() Method {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.method
}

// Params returns the effective fit parameters (Estimator included; LAF's
// Alpha default resolved to 1). Until the first Insert/Remove they are the
// fitted ones, Index included. From then on they are the counterpart's
// that Method reports, and a FitParams of the model's points with Method
// and Params reproduces its labels bit for bit: Metric is the one the fit
// ran under (cosine for every method but DBSCAN and LAF-DBSCAN), the
// sampled and block methods' knobs (SampleFraction, Branching,
// LeavesRatio, Base, RNT, Rho) are zero, and, because the model's index is
// then privately owned and mutated under its lock, Index is nil,
// IndexBackend is "brute" and EfSearch is 0 — the exact scan the mutated
// model queries, which a refit or a reload from these parameters builds
// again.
func (m *Model) Params() Params {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.params
}

// Len returns the current number of model points (training points plus
// inserted minus removed).
func (m *Model) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.points)
}

// Dim returns the points' dimensionality.
func (m *Model) Dim() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dimLocked()
}

func (m *Model) dimLocked() int {
	if len(m.points) == 0 {
		return 0
	}
	return len(m.points[0])
}

// ErrDimensionMismatch reports a vector whose length differs from the
// model's dimensionality. Predict, PredictWithOptions and Insert return it,
// wrapped with the offending position, before running any query.
var ErrDimensionMismatch = errors.New("lafdbscan: vector dimension does not match the model")

// CheckDims returns ErrDimensionMismatch, wrapped with the position of the
// first offending vector, when any vector's length differs from Dim().
func (m *Model) CheckDims(vectors [][]float32) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.checkDimsLocked(vectors)
}

func (m *Model) checkDimsLocked(vectors [][]float32) error {
	dim := m.dimLocked()
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("%w: vector %d has %d dims, model has %d", ErrDimensionMismatch, i, len(v), dim)
		}
	}
	return nil
}

// IndexBackend returns the registry name of the backend the model's range
// index was resolved through ("brute", "hnsw", ...), or "" when the index
// was supplied pre-built by the caller (the lafserve registry reports its
// own backend in that case). After the first Insert/Remove it reports the
// exact scan the maintenance overlay installs.
func (m *Model) IndexBackend() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.indexBackend
}

// NumClusters returns the current number of clusters.
func (m *Model) NumClusters() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.result.NumClusters
}

// NumCores returns the current number of core points.
func (m *Model) NumCores() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.numCoresLocked()
}

func (m *Model) numCoresLocked() int {
	n := 0
	for _, c := range m.core {
		if c {
			n++
		}
	}
	return n
}

// Labels returns a copy of the current labels.
func (m *Model) Labels() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.labels)
}

// CoreMask returns a copy of the current core-point mask.
func (m *Model) CoreMask() []bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.core)
}

// Forest returns a copy of the canonical cluster forest: the minimum-index
// core point of each core point's cluster, -1 for non-core points.
func (m *Model) Forest() []int32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.forest)
}

// Result returns the current result snapshot (for loaded and mutated
// models, a reconstruction carrying the algorithm, labels, cores, forest
// and cluster count but no timings or query counters). Mutations replace
// the snapshot rather than editing it, so a returned Result is stable even
// while the model keeps evolving.
func (m *Model) Result() *Result {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.result
}

// HasEstimator reports whether the model carries a cardinality estimator
// (fitted LAF models always do; loaded models only when the estimator was
// serializable).
func (m *Model) HasEstimator() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.params.Estimator != nil
}

// Updates returns the total number of point mutations (inserts plus
// removals) applied to the model over its lifetime; the counter survives
// Save/LoadModel round trips.
func (m *Model) Updates() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.updates
}

// Staleness returns the number of point mutations applied since the
// estimator was (re)trained — the drift signal the RetrainPolicy consumes.
func (m *Model) Staleness() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.staleness
}

// PredictOptions tunes Predict.
type PredictOptions struct {
	// Gate enables LAF's estimator gate on prediction: vectors whose
	// estimated training-set cardinality falls below GateThreshold skip
	// their range query and are labeled Noise directly — the same
	// query-elision economics as fitting, applied out of sample. Estimator
	// errors can mislabel borderline points as noise; leave the gate off
	// when exact DBSCAN-semantics assignment matters. Requires a model
	// with an estimator.
	Gate bool
	// GateThreshold is the predicted-cardinality cutoff of the gate;
	// <= 0 selects 1 (fewer than one predicted training neighbor within
	// Eps — nothing nearby to join).
	GateThreshold float64
}

// Predict assigns each vector to a fitted cluster under DBSCAN semantics: a
// vector within Eps of a core point joins that core's cluster, and a vector
// within Eps of no core point is Noise. Each prediction costs one range
// query over the training index (no re-clustering); queries are batched
// through the wave engine, so prediction scales with the model's Workers
// setting and aborts within one wave of a context cancellation.
//
// When several clusters' cores lie within Eps, the vector joins the cluster
// its fitting run would have chosen: the lowest-numbered adjacent cluster
// for the traversal-based methods (DBSCAN, LAF-DBSCAN, ρ-approximate), the
// nearest core's cluster for the assignment-based ones (the ++ variants,
// KNN-BLOCK, BLOCK-DBSCAN), the lowest id of equally near cores. A mutated
// model is a traversal method (see Method). Predicting the training points
// themselves therefore reproduces the fitted labels wherever the method's
// own structures were exact (always for DBSCAN, and for the ++ variants on
// the exact index, ties included; for the approximate baselines and
// post-processing-repaired LAF runs, up to their documented
// approximations).
func (m *Model) Predict(ctx context.Context, vectors [][]float32) ([]int, error) {
	labels, _, err := m.PredictWithOptions(ctx, vectors, PredictOptions{})
	return labels, err
}

// PredictWithOptions is Predict with the LAF gate available; skipped
// reports how many range queries the gate elided. A vector whose length
// differs from Dim() fails the whole call with ErrDimensionMismatch.
func (m *Model) PredictWithOptions(ctx context.Context, vectors [][]float32, o PredictOptions) (labels []int, skipped int, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkDimsLocked(vectors); err != nil {
		return nil, 0, err
	}
	labels = make([]int, len(vectors))
	queries := vectors
	qmap := []int(nil) // queries[k] predicts labels[qmap[k]] (nil: identity)
	if o.Gate {
		est := m.params.Estimator
		if est == nil {
			return nil, 0, fmt.Errorf("lafdbscan: prediction gate requires a model with an estimator (method %q has none)", m.method)
		}
		threshold := o.GateThreshold
		if threshold <= 0 {
			threshold = 1
		}
		// The fit's gate loop with Alpha·Tau = threshold·1, which is exactly
		// threshold: it honors ctx and starts no estimate once it is done.
		pass, err := core.Gate(ctx, vectors, core.Config{
			Eps: m.params.Eps, Tau: 1, Alpha: threshold, Estimator: est,
			Workers: m.params.Workers,
		})
		if err != nil {
			return nil, 0, err
		}
		queries = make([][]float32, 0, len(vectors))
		qmap = make([]int, 0, len(vectors))
		for i, ok := range pass {
			if ok {
				queries = append(queries, vectors[i])
				qmap = append(qmap, i)
			} else {
				labels[i] = Noise
			}
		}
		skipped = len(vectors) - len(queries)
	}
	// The sampling and block methods give a contested border its nearest
	// core's cluster; a mutated model is never one of them.
	nearest := m.method != MethodDBSCAN && m.method != MethodLAFDBSCAN && m.method != MethodRhoApprox
	err = index.BatchRangeSearchFunc(ctx, m.index, queries, m.params.Eps,
		m.params.Workers, 0, m.params.WaveSize,
		func(k int, ids []int) {
			i := k
			if qmap != nil {
				i = qmap[k]
			}
			if nearest {
				labels[i] = m.nearestCoreLabelLocked(queries[k], ids)
			} else {
				labels[i] = m.minClusterLabelLocked(ids)
			}
		})
	if err != nil {
		return nil, 0, err
	}
	return labels, skipped, nil
}

// minClusterLabelLocked returns the minimum cluster label among the core
// points in ids, or Noise when none is core. The caller must hold mu.
func (m *Model) minClusterLabelLocked(ids []int) int {
	best := Noise
	for _, q := range ids {
		if m.core[q] && (best == Noise || m.labels[q] < best) {
			best = m.labels[q]
		}
	}
	return best
}

// nearestCoreLabelLocked returns the label of the closest core point to q
// in ids under cosine distance (the metric every nearest-core method is
// hardwired to), or Noise when ids hold no core. Of equally close cores
// the lowest id wins, whatever order the index lists them in, as in the
// ++ variants' fit. The caller must hold mu.
func (m *Model) nearestCoreLabelLocked(q []float32, ids []int) int {
	best, bestID, bestD := Noise, -1, m.params.Eps
	for _, id := range ids {
		if !m.core[id] {
			continue
		}
		d := vecmath.CosineDistanceUnit(q, m.points[id])
		if d < bestD || d == bestD && id < bestID {
			best, bestID, bestD = m.labels[id], id, d
		}
	}
	return best
}

// --- persistence ---

// modelMagic and modelVersion head every serialized model. The magic
// rejects arbitrary files immediately; the version gates the payload
// decoder so future layout changes stay loadable side by side.
var modelMagic = [4]byte{'L', 'A', 'F', 'M'}

// modelVersion is the current write version. Version 1 was the PR 4
// layout; version 2 added the Updates mutation counter (incremental
// maintenance). Gob ignores fields absent from the wire, so one decoder
// reads both versions; the explicit number still gates truly incompatible
// future layouts.
const modelVersion uint32 = 2

// modelParamsV1 is the persistable subset of Params (Estimator and Index
// travel separately or are rebuilt on load). Files written before the
// per-worker claim size was removed also carry a BatchSize field, which
// gob skips on decode.
type modelParamsV1 struct {
	Eps                   float64
	Tau                   int
	Alpha                 float64
	SampleFraction        float64
	Branching             int
	LeavesRatio           float64
	Base                  float64
	RNT                   int
	Rho                   float64
	Metric                int32
	Seed                  int64
	DisablePostProcessing bool
	Workers               int
	WaveSize              int
	// IndexBackend and EfSearch joined with the backend registry; gob
	// zeroes them when decoding older streams, which resolves to the exact
	// default — the behavior those models were saved under. A name that is
	// no longer registered fails the load (ErrUnknownIndexBackend).
	IndexBackend string
	EfSearch     int
}

// modelPayloadV1 is the gob payload following the binary header, shared by
// versions 1 and 2: version 2 writes the additional Updates field, which
// gob leaves zero when decoding a version-1 stream.
type modelPayloadV1 struct {
	Method      string
	Algorithm   string
	Params      modelParamsV1
	Points      [][]float32
	Labels      []int32
	Core        []bool
	Forest      []int32
	NumClusters int
	// Estimator is the LAF gate, present when the fitted estimator was
	// serializable (RMI); other estimator kinds are dropped on Save and the
	// loaded model predicts ungated.
	HasEstimator bool
	Estimator    estimatorPayload
	// Updates is the model's lifetime mutation counter (version 2).
	Updates int64
}

// Save writes the model to w: a fixed binary header (magic "LAFM" plus a
// little-endian version) followed by the versioned gob payload — training
// points, labels, cores, forest, configuration, and the RMI estimator
// through internal/rmi's wire format when one is attached. A load of the
// written bytes predicts identically to the in-memory model.
//
// Save holds the model's read lock for the whole write, so a snapshot
// taken while other goroutines mutate the model is always a consistent
// cut: it reflects every mutation that completed before the lock was
// acquired and none that started after — never a half-applied batch. A
// Save that runs while a mutation is planned or journaled captures the
// state before it. DurableModel.Snapshot falls exactly on a WAL record
// boundary (the durable mutex holds each record's plan, append and commit
// as one critical section), which is what lets recovery replay the
// remaining journal on top of it bit-identically.
func (m *Model) Save(w io.Writer) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, err := w.Write(modelMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, modelVersion); err != nil {
		return err
	}
	labels := make([]int32, len(m.labels))
	for i, l := range m.labels {
		labels[i] = int32(l)
	}
	p := m.params
	payload := modelPayloadV1{
		Method:    string(m.method),
		Algorithm: m.result.Algorithm,
		Params: modelParamsV1{
			Eps: p.Eps, Tau: p.Tau, Alpha: p.Alpha,
			SampleFraction: p.SampleFraction,
			Branching:      p.Branching, LeavesRatio: p.LeavesRatio,
			Base: p.Base, RNT: p.RNT, Rho: p.Rho,
			Metric: int32(p.Metric), Seed: p.Seed,
			DisablePostProcessing: p.DisablePostProcessing,
			Workers:               p.Workers, WaveSize: p.WaveSize,
			IndexBackend: p.IndexBackend, EfSearch: p.EfSearch,
		},
		Points:      m.points,
		Labels:      labels,
		Core:        m.core,
		Forest:      m.forest,
		NumClusters: m.result.NumClusters,
		Updates:     m.updates,
	}
	if est := m.params.Estimator; est != nil {
		switch ep, err := marshalEstimator(est); {
		case err == nil:
			payload.HasEstimator = true
			payload.Estimator = ep
		case errors.Is(err, errEstimatorNotSerializable):
			// Documented drop: oracle/sampling/histogram estimators have no
			// wire format; the loaded model predicts ungated.
		default:
			return err // a real RMI encoding failure must not save silently
		}
	}
	return gob.NewEncoder(w).Encode(&payload)
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModel reads a model written by Save and rebuilds its range index, so
// the returned model predicts identically to the one that was saved. It
// rejects wrong or truncated headers and unknown versions with descriptive
// errors, and a file naming an index backend this build does not register
// (earlier releases also offered "covertree", "kmeanstree" and "grid")
// with an error wrapping ErrUnknownIndexBackend: its labels came from that
// index, so no other one could reproduce them.
func LoadModel(r io.Reader) (*Model, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("lafdbscan: reading model header: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("lafdbscan: not a model file (bad magic %q)", magic[:])
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("lafdbscan: reading model version: %w", err)
	}
	switch version {
	case 1, 2:
		// One decoder serves both: version 2 only added fields, which gob
		// zeroes when absent from a version-1 stream.
		return loadModelV1(r)
	default:
		// Future versions slot in above; refusing unknown ones here keeps
		// a corrupted or newer-format file from decoding into garbage.
		return nil, fmt.Errorf("lafdbscan: unsupported model version %d (this build reads <= %d)", version, modelVersion)
	}
}

// loadModelV1 decodes the version-1/2 payload.
func loadModelV1(r io.Reader) (*Model, error) {
	var payload modelPayloadV1
	if err := gob.NewDecoder(r).Decode(&payload); err != nil {
		return nil, fmt.Errorf("lafdbscan: decoding model: %w", err)
	}
	m := Method(payload.Method)
	if !slices.Contains(AllMethods(), m) {
		return nil, fmt.Errorf("lafdbscan: model names unknown method %q", payload.Method)
	}
	n := len(payload.Points)
	if n == 0 || len(payload.Labels) != n || len(payload.Core) != n || len(payload.Forest) != n {
		return nil, fmt.Errorf("lafdbscan: malformed model: %d points, %d labels, %d cores, %d forest entries",
			n, len(payload.Labels), len(payload.Core), len(payload.Forest))
	}
	pp := payload.Params
	// Earlier releases read a negative WaveSize as "buffer every neighbor
	// list"; that engine is gone and labels are identical at every wave
	// size, so such files load with the default.
	pp.WaveSize = max(pp.WaveSize, 0)
	p := Params{
		Eps: pp.Eps, Tau: pp.Tau, Alpha: pp.Alpha,
		SampleFraction: pp.SampleFraction,
		Branching:      pp.Branching, LeavesRatio: pp.LeavesRatio,
		Base: pp.Base, RNT: pp.RNT, Rho: pp.Rho,
		Metric: DistanceMetric(pp.Metric), Seed: pp.Seed,
		DisablePostProcessing: pp.DisablePostProcessing,
		Workers:               pp.Workers, WaveSize: pp.WaveSize,
		IndexBackend: pp.IndexBackend, EfSearch: pp.EfSearch,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("lafdbscan: malformed model: %w", err)
	}
	if payload.HasEstimator {
		est, err := unmarshalEstimator(payload.Estimator)
		if err != nil {
			return nil, fmt.Errorf("lafdbscan: model estimator: %w", err)
		}
		// The estimator's input is a point plus the radius; any other width
		// would make its first Estimate index past the feature buffer.
		if in, dim := est.Model.InDim(), len(payload.Points[0]); in != dim+1 {
			return nil, fmt.Errorf("lafdbscan: malformed model: estimator takes %d-d points, model has %d-d", in-1, dim)
		}
		p.Estimator = est
	}
	labels := make([]int, n)
	for i, l := range payload.Labels {
		labels[i] = int(l)
	}
	// The prediction index is rebuilt through the backend registry from
	// the persisted knob: old streams decode to the zero IndexBackend and
	// get the exact scan they were saved under; models fitted on a named
	// backend get a deterministic rebuild (same backend, same seed).
	idx, resolvedBackend, err := p.NewIndex(payload.Points, modelMetric(m, p.Metric))
	if err != nil {
		return nil, fmt.Errorf("lafdbscan: rebuilding model index: %w", err)
	}
	p.Index = idx
	res := &Result{
		Algorithm:   payload.Algorithm,
		Labels:      labels,
		NumClusters: payload.NumClusters,
		Core:        payload.Core,
		Forest:      payload.Forest,
	}
	model := newModel(m, p, payload.Points, res, resolvedBackend, nil)
	//lafvet:allow lockcheck the model is freshly deserialized and not yet visible to any other goroutine
	model.updates = payload.Updates
	return model, nil
}

// LoadModelFile reads a model from a file.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
