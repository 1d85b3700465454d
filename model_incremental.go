package lafdbscan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/index"
	"lafdbscan/internal/wal"
)

// This file is online model maintenance: Model.Insert and Model.Remove
// evolve a fitted clustering with the data instead of re-clustering from
// scratch — incremental DBSCAN in the spirit of Ester et al. (1998), built
// on the order-free facts the wave engines rest on: a labeling is a pure
// function of the core set, the ε-connectivity among core points, each
// point's adjacent cores, and (for LAF post-processing) the complete
// partial-neighbor map. The maintenance overlay (incState)
// keeps exactly those facts and updates them from the Eps-neighborhoods of
// the changed points only; labels are then re-resolved canonically
// (cluster.ResolveCanonical) in memory, with no further range queries.
// The overlay's facts always come from the engine: the fit's own
// neighbor lists when the model was fitted with DBSCAN or LAF-DBSCAN on
// the exact scan, so the first mutation queries no existing point; one
// engine pass over its points for any other model, and for every re-gate
// after a retrain. Every ε-row a mutation reads comes from range queries
// (overlay.neighborRows), over the model's index and, for an Insert, over
// the batch being added: maintenance computes no distance of its own.
//
// Equality contract. After any sequence of Insert/Remove the model's
// labels, core mask, forest and cluster count are bit-identical to a fresh
// FitParams of its current points with its Method() and Params(), at every
// Workers/WaveSize setting. The overlay keeps the exact facts of two
// methods:
//
//   - MethodDBSCAN;
//   - MethodLAFDBSCAN, with post-processing disabled or enabled. The
//     engine and the overlay both keep the complete partial-neighbor map,
//     which depends on the point set alone.
//
// A model of any other method becomes its exact counterpart at its first
// mutation: LAF-DBSCAN++ becomes LAF-DBSCAN under the same estimator, and
// DBSCAN++, KNN-BLOCK, BLOCK-DBSCAN and ρ-approximate become DBSCAN. That
// mutation adopts the counterpart engine's core set along with its
// neighbor rows, in place of the fitted, sampled one; Method(), Params(),
// Save and Result().Algorithm follow the counterpart from then on. A
// mutation is a plan, then one commit (Model.apply): every range query runs
// under the read lock before the model is touched, so a failed or
// cancelled one, the first included, leaves the model exactly as it was,
// and a durable model journals only mutations whose plan succeeded.

// incState is the maintenance overlay, built lazily by the first mutation.
// It owns its point slice and range index (the fitted ones may be shared
// with the caller or the lafserve registry and are never mutated).
type incState struct {
	// counts[i] is |N(i)|, the true Eps-neighbor count including i itself
	// — the density side of the core criterion. It is kept for every point
	// that runs its query (every point for the ungated methods); a stop
	// point's count is 0 and unread, since a stop point is never promoted
	// and a re-gate takes its facts from a new engine pass.
	counts []int
	// gated[i] is the LAF estimator gate decision for point i (estimate >=
	// Alpha*Tau, core.Gate), nil for non-LAF methods. Gating is a pure
	// per-point function of the estimator, so it is computed once and only
	// changes on retrain.
	gated []bool
	// adj[i] lists the current core points within Eps of i (excluding i):
	// the ε-connectivity graph restricted to cores, plus every border's
	// adjacent-core set — the two facts label resolution needs.
	adj [][]int32
	// stop is the complete partial-neighbor map, in the form the engines
	// build and core.PostProcess reads: every stop point (not gated) has an
	// entry, whose row lists the gated points within Eps of it. Maintained
	// only for LAF-DBSCAN with post-processing enabled, nil otherwise.
	stop *cluster.PartialNeighbors
	// dyn is the owned brute-force index planOverlayLocked builds over the
	// cloned points; it is Model.index from then on, and Insert/Remove
	// mutate it in step with the point slice.
	dyn *index.BruteForce
}

// overlay is what a mutation plans against: the maintenance overlay and
// the model state installed with it. For a model mutated before, it is the
// model's own state; for the first mutation it is a new, uninstalled one
// (planOverlayLocked), which the mutation's commit installs.
type overlay struct {
	inc *incState
	// facts are the engine facts a first mutation's overlay comes from,
	// whose rows become inc.adj at install; nil for an installed overlay.
	facts  *core.Facts
	points [][]float32
	core   []bool
	method Method
	params Params
	// algorithm is the Result.Algorithm of method's engine (set by a plan).
	algorithm string
}

// UpdateReport summarizes one Insert or Remove.
type UpdateReport struct {
	// Inserted and Removed count the points this update added or dropped.
	Inserted int `json:"inserted,omitempty"`
	Removed  int `json:"removed,omitempty"`
	// Promoted and Demoted count existing points whose core status flipped,
	// against the core set the update started from: a model's first
	// mutation counts them against its exact counterpart's core set, not
	// the fitted, sampled one.
	Promoted int `json:"promoted,omitempty"`
	Demoted  int `json:"demoted,omitempty"`
	// Clusters and Cores are the model totals after the update.
	Clusters int `json:"clusters"`
	Cores    int `json:"cores"`
	// Staleness is the mutation count since the estimator was (re)trained.
	Staleness int `json:"staleness"`
	// Retrained reports that this update tripped the RetrainPolicy.
	Retrained bool `json:"retrained,omitempty"`
}

// RetrainPolicy makes a LAF model's estimator follow the data: after After
// mutations since the last (re)training, the next Insert/Remove calls Train
// over the model's current points and swaps the estimator in. The model,
// LAF-DBSCAN since its first mutation, then re-gates every point and
// re-resolves labels (one engine pass — the incremental analogue of
// refitting with the new estimator). A failed retrain leaves the applied
// mutation in place and returns ErrRetrainFailed.
// A zero policy (the default) never retrains; Staleness still counts, so
// callers can drive retraining themselves.
type RetrainPolicy struct {
	// After is the mutation count that triggers a retrain; <= 0 disables.
	After int
	// Train produces a new estimator over the model's current points.
	Train func(ctx context.Context, points [][]float32) (Estimator, error)
}

// SetRetrainPolicy installs the estimator retrain policy (see
// RetrainPolicy). Safe for concurrent use with every other model method.
func (m *Model) SetRetrainPolicy(p RetrainPolicy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retrain = p
}

// modelMetric returns the metric a model's range queries run under: only
// DBSCAN and LAF-DBSCAN honor Params.Metric, every other method is
// hardwired to cosine distance.
func modelMetric(method Method, m DistanceMetric) DistanceMetric {
	if method == MethodDBSCAN || method == MethodLAFDBSCAN {
		return m
	}
	return MetricCosine
}

// counterpart returns the method a model of method becomes at its first
// mutation: the exact traversal method it approximates.
func counterpart(method Method) Method {
	if method == MethodLAFDBSCAN || method == MethodLAFDBSCANPP {
		return MethodLAFDBSCAN
	}
	return MethodDBSCAN
}

// trackStop reports whether maintenance under method and p must keep the
// complete partial-neighbor map (LAF-DBSCAN's post-processing replay).
func trackStop(method Method, p Params) bool {
	return method == MethodLAFDBSCAN && !p.DisablePostProcessing
}

// overlayLocked returns the overlay a mutation plans against: the model's
// own once it has one, otherwise planOverlayLocked's. It changes nothing
// on the model.
func (m *Model) overlayLocked(ctx context.Context) (*overlay, error) {
	if m.inc == nil {
		return m.planOverlayLocked(ctx)
	}
	return &overlay{inc: m.inc, points: m.points, core: m.core, method: m.method, params: m.params}, nil
}

// planOverlayLocked builds the first mutation's overlay without touching
// the model: it clones the point slice (the fitted one may be shared) and
// builds an owned dynamic brute-force index over the clone, exact under
// the model's metric. The overlay's method is the model's counterpart,
// its parameters the counterpart's (see Model.Params), and its facts —
// counts, core set and, for LAF-DBSCAN, gate flags and the complete
// partial-neighbor map — are that engine's: the fit's own when the model
// kept them, otherwise (HNSW fits, the sampling/block methods, loaded and
// recovered models) those of one counterpart engine pass over the owned
// index (engineFacts), whose core set the overlay adopts.
func (m *Model) planOverlayLocked(ctx context.Context) (*overlay, error) {
	p := m.params
	p.Metric = modelMetric(m.method, p.Metric)
	p.SampleFraction, p.Branching, p.LeavesRatio, p.Base, p.RNT, p.Rho = 0, 0, 0, 0, 0, 0
	p.Index, p.IndexBackend, p.EfSearch = nil, index.BackendBrute, 0
	ov := &overlay{method: counterpart(m.method), params: p, facts: m.fit, core: m.core, algorithm: m.result.Algorithm}
	if ov.method == MethodLAFDBSCAN && p.Estimator == nil {
		return nil, fmt.Errorf("lafdbscan: %s maintenance requires the estimator gate, and this model carries none (loaded from a save that could not serialize it?)", m.method)
	}
	ov.points = slices.Clone(m.points)
	dyn := index.NewBruteForce(slices.Clone(ov.points), p.Metric.Func())
	if ov.facts == nil {
		facts, res, err := engineFacts(ctx, dyn, ov.points, ov.method, p)
		if err != nil {
			return nil, err
		}
		ov.facts, ov.core, ov.algorithm = facts, res.Core, res.Algorithm
	}
	ov.inc = &incState{dyn: dyn, counts: countsOf(ov.facts)}
	if ov.method == MethodLAFDBSCAN {
		ov.inc.gated = ov.facts.Pass
	}
	return ov, nil
}

// installLocked commits a planned first overlay: the model takes over its
// points, index, core set, counterpart method and parameters, and its
// facts' rows become the overlay's adjacency (adoptRows). The fit's facts
// are dropped, and the owned index replaces the fitted one: it is mutated
// from here on, so it must not leak through Params() — a caller holding
// Params().Index would race the maintenance writes and watch ids shift
// underneath it. A no-op for a model mutated before.
func (m *Model) installLocked(ov *overlay) {
	if ov.facts == nil {
		return
	}
	adoptRows(ov.inc, ov.facts, ov.core, trackStop(ov.method, ov.params))
	m.fit = nil
	m.inc = ov.inc
	m.points = ov.points
	m.core = ov.core
	m.method = ov.method
	m.params = ov.params
	m.index = ov.inc.dyn
	m.indexBackend = index.BackendBrute
	res := *m.result
	res.Algorithm = ov.algorithm
	m.result = &res
}

// engineFacts runs method's engine (DBSCAN or LAF-DBSCAN) over points on
// idx under p, with post-processing off (the partial-neighbor map does not
// depend on it), and returns its neighbor facts and result. Under DBSCAN's
// open gate every point queries, so every row is a complete neighbor list
// in the index's ascending id order.
func engineFacts(ctx context.Context, idx RangeIndex, points [][]float32, method Method, p Params) (*core.Facts, *Result, error) {
	p.Index = idx
	p.DisablePostProcessing = true
	facts := new(core.Facts)
	res, err := run(ctx, points, method, p, facts)
	if err != nil {
		return nil, nil, err
	}
	return facts, res, nil
}

// countsOf returns the neighbor counts of an engine run's facts: a queried
// point's count is the length of its row; a stop point's stays 0 (see
// incState.counts). It leaves f as it was, so a plan that is abandoned
// leaves the fit's kept facts intact.
func countsOf(f *core.Facts) []int {
	counts := make([]int, len(f.Rows))
	for i, row := range f.Rows {
		if f.Pass[i] {
			counts[i] = len(row)
		}
	}
	return counts
}

// adoptRows takes an engine run's facts' rows over as inc's adjacency,
// filtered to the core set coreMask, and, when stop is set, its complete
// partial-neighbor map. A queried point's adjacency is its row filtered in
// place to the other cores. A stop point's is its row of the complete
// partial-neighbor map filtered to cores: every core ran its query, so
// that row names every core within Eps.
func adoptRows(inc *incState, f *core.Facts, coreMask []bool, stop bool) {
	inc.adj = f.Rows
	for i, row := range f.Rows {
		if !f.Pass[i] {
			inc.adj[i] = appendCores(nil, f.E.Rows[i], coreMask, i)
			continue
		}
		inc.adj[i] = appendCores(row[:0], row, coreMask, i)
	}
	if stop {
		inc.stop = f.E
		if inc.stop == nil { // every point passed the gate
			inc.stop = cluster.NewPartialNeighbors(len(f.Rows))
		}
	}
}

// appendCores appends to dst the ids in row that are core, other than
// self. dst may be row[:0], which filters row in place.
func appendCores(dst, row []int32, core []bool, self int) []int32 {
	for _, q := range row {
		if int(q) != self && core[q] {
			dst = append(dst, q)
		}
	}
	return dst
}

// neighborRows runs one batched Eps-neighborhood query per vector over the
// overlay's index and, when batch is non-empty, over a throwaway
// brute-force index of batch (the vectors an Insert is adding), and
// returns row i as query i's complete neighbor ids: the index's ids
// ascending, then batch position j as id len(points)+j ascending. A query
// finds itself only where an index returns it, as a fitted point does. It
// is maintenance's one source of ε-rows. The callback runs on pool workers
// and writes only its own row; the context aborts within one wave.
func (ov *overlay) neighborRows(ctx context.Context, queries, batch [][]float32) ([][]int32, error) {
	rows := make([][]int32, len(queries))
	p := ov.params
	search := func(idx RangeIndex, base int) error {
		return index.BatchRangeSearchFunc(ctx, idx, queries, p.Eps, p.Workers, 0, p.WaveSize,
			func(i int, ids []int) {
				row := slices.Grow(rows[i], len(ids))
				for _, id := range ids {
					row = append(row, int32(base+id))
				}
				rows[i] = row
			})
	}
	if err := search(ov.inc.dyn, 0); err != nil {
		return nil, err
	}
	if len(batch) > 0 {
		if err := search(index.NewBruteForce(batch, p.Metric.Func()), len(ov.points)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Insert adds vectors to the model and folds them into the clustering
// online: each new point's Eps-neighborhood is queried once over the
// model's index and the batch (batched through the wave engine, like
// fitting and prediction), neighbor counts update, existing points
// crossing Tau are promoted to core (one neighborhood query each, over
// the same two), new core points may merge existing clusters through the
// ε-connectivity forest, and labels are re-resolved in memory. A new
// point counts itself as its neighbor only when the range query returns
// it, exactly as a fit counts it. New points get ids Len()..Len()+k-1.
// Vectors must be unit-normalized with the model's dimensionality; any
// other length fails the whole batch with ErrDimensionMismatch.
//
// The resulting labels are bit-identical to a fresh FitParams of the grown
// point set with Method() and Params() (see the equality contract at the
// top of this file); total work is proportional to the changed
// neighborhoods, not the dataset.
//
// The first mutation builds the maintenance overlay, replaces the model's
// range index with an owned exact one, and switches a sampled or block
// model to its exact counterpart: LAF-DBSCAN++ to LAF-DBSCAN, every other
// method to DBSCAN (see Method). A DBSCAN or LAF-DBSCAN model fitted on
// the exact scan builds the overlay from the fit's neighbor lists with no
// range query; any other model pays one counterpart engine pass over its
// existing points. On error — cancellation included, the first mutation's
// too — the model is left exactly as it was, and cancellation aborts
// within one query wave; the exception is ErrRetrainFailed, returned after
// the insert was applied.
func (m *Model) Insert(ctx context.Context, vectors [][]float32) (UpdateReport, error) {
	return m.apply(ctx, &wal.Record{Kind: wal.KindInsert, Vectors: vectors}, nil)
}

// Remove drops the points with the given ids from the model and repairs
// the clustering online: the removed points' Eps-neighborhoods are queried
// once (batched through the wave engine), neighbor counts drop, core
// points falling under Tau are demoted (one neighborhood query each — the
// bounded re-expansion of the affected region), and label re-resolution
// over the maintained core graph detects every cluster split exactly. Ids
// follow the compacting convention: after the call, ids above each removed
// point shift down by one, matching a fresh Fit on the shrunken point set.
// Duplicate ids are rejected; removing every point is (like fitting an
// empty dataset) an error.
//
// The equality and atomicity guarantees of Insert apply: labels match a
// fresh FitParams with Method() and Params() bit for bit, and a failed or
// cancelled call leaves the model untouched. The first mutation builds the
// overlay and switches the method as Insert describes.
func (m *Model) Remove(ctx context.Context, ids []int) (UpdateReport, error) {
	return m.apply(ctx, &wal.Record{Kind: wal.KindRemove, IDs: ids}, nil)
}

// apply is the one path by which a model changes and the one place a
// record kind maps to a mutation; Insert, Remove, DurableModel and replay
// all run it. Under the mutation mutex, so the state a plan reads is the
// state its commit writes, it plans under the read lock (validation, the
// first mutation's overlay, every range query and gate decision; no
// writes), calls journal, when non-nil, with no model lock held, then
// commits, relabels and retrains under the write lock. A record the plan
// rejects or cancels, or whose journal fails, never reaches the commit:
// the model, and a durable model's disk, stay exactly as they were. An
// empty batch plans nothing and journals nothing.
func (m *Model) apply(ctx context.Context, rec *wal.Record, journal func(*wal.Record) error) (UpdateReport, error) {
	m.mutating.Lock()
	defer m.mutating.Unlock()

	m.mu.RLock()
	var commit func() UpdateReport
	var err error
	switch rec.Kind {
	case wal.KindInsert:
		commit, err = m.planInsertLocked(ctx, rec.Vectors)
	case wal.KindRemove:
		commit, err = m.planRemoveLocked(ctx, rec.IDs)
	default:
		err = fmt.Errorf("lafdbscan: unknown record kind %d", rec.Kind)
	}
	var report UpdateReport
	if err == nil && commit == nil {
		report = m.reportLocked(report)
	}
	m.mu.RUnlock()
	if err != nil || commit == nil {
		return report, err
	}

	if journal != nil {
		if err := journal(rec); err != nil {
			return UpdateReport{}, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	report = commit()
	m.relabelLocked()
	moved := report.Inserted + report.Removed
	m.updates += int64(moved)
	m.staleness += moved
	return m.maybeRetrainLocked(ctx, m.reportLocked(report))
}

// planInsertLocked plans an Insert of vectors and returns its commit, nil
// for an empty batch. The caller holds mu for reading while it runs and
// for writing while the commit runs.
func (m *Model) planInsertLocked(ctx context.Context, vectors [][]float32) (func() UpdateReport, error) {
	if len(vectors) == 0 {
		return nil, nil
	}
	if err := m.checkDimsLocked(vectors); err != nil {
		return nil, err
	}
	ov, err := m.overlayLocked(ctx)
	if err != nil {
		return nil, err
	}
	inc := ov.inc
	n := len(ov.points)
	b := len(vectors)
	tau := ov.params.Tau

	// Phase A (cancellable, no state changes): the new vectors' complete
	// neighborhoods, over the existing points and the batch.
	rows, err := ov.neighborRows(ctx, vectors, vectors)
	if err != nil {
		return nil, err
	}
	// Count updates and gate decisions.
	delta := make(map[int]int)
	for _, row := range rows {
		for _, u := range row {
			if int(u) < n {
				delta[int(u)]++
			}
		}
	}
	var newGated []bool
	if inc.gated != nil {
		if newGated, err = core.Gate(ctx, vectors, lafConfig(ov.params)); err != nil {
			return nil, err
		}
	}
	// Core transitions: new points by the (gated) density criterion,
	// existing non-core points crossing Tau promoted.
	newCore := make([]bool, b)
	for k, row := range rows {
		newCore[k] = (newGated == nil || newGated[k]) && len(row) >= tau
	}
	var promoted []int
	for u, d := range delta {
		if !ov.core[u] && inc.counts[u]+d >= tau && (inc.gated == nil || inc.gated[u]) {
			promoted = append(promoted, u)
		}
	}
	sort.Ints(promoted)

	// Phase B (cancellable): the promoted points' complete neighborhoods,
	// the bounded re-expansion that wires them into the core graph.
	var prows [][]int32
	if len(promoted) > 0 {
		queries := make([][]float32, len(promoted))
		for i, w := range promoted {
			queries[i] = ov.points[w]
		}
		if prows, err = ov.neighborRows(ctx, queries, vectors); err != nil {
			return nil, err
		}
	}

	return func() UpdateReport {
		m.installLocked(ov)
		for _, row := range rows {
			inc.counts = append(inc.counts, len(row))
		}
		for u, d := range delta {
			inc.counts[u] += d
		}
		if inc.gated != nil {
			inc.gated = append(inc.gated, newGated...)
		}
		wasCore := m.core
		coreMask := slices.Clone(wasCore)
		coreMask = append(coreMask, newCore...)
		for _, w := range promoted {
			coreMask[w] = true
		}
		m.core = coreMask
		m.points = append(m.points, vectors...)
		inc.dyn.Insert(vectors)
		inc.adj = append(inc.adj, make([][]int32, b)...)
		if inc.stop != nil {
			for _, g := range newGated {
				inc.stop.Stop = append(inc.stop.Stop, !g)
			}
			inc.stop.Rows = append(inc.stop.Rows, make([][]int32, b)...)
		}

		// The changed points, promoted then new, and their complete rows.
		// Each one's adjacency is rebuilt from its row: the cores within
		// Eps. A newly-core one also joins the adjacency of its neighbors
		// whose rows are not rebuilt: old points whose core flag did not
		// flip.
		changed := slices.Clone(promoted)
		for k := range vectors {
			changed = append(changed, n+k)
		}
		for i, row := range append(prows, rows...) {
			c := changed[i]
			inc.adj[c] = appendCores(nil, row, m.core, c)
			if !m.core[c] {
				continue
			}
			for _, u := range row {
				if int(u) < n && wasCore[u] == m.core[u] {
					inc.adj[u] = append(inc.adj[u], int32(c))
				}
			}
		}
		// Complete partial-neighbor map: new gated points register with
		// their old stop neighbors (Algorithm 2); new stop points collect
		// their gated neighbors (old and new) from their own side.
		if e := inc.stop; e != nil {
			for k, row := range rows {
				if newGated[k] {
					for _, u := range row {
						if int(u) < n && e.Stop[u] {
							e.Rows[u] = append(e.Rows[u], int32(n+k))
						}
					}
				} else {
					var s []int32
					for _, u := range row {
						if inc.gated[u] {
							s = append(s, u)
						}
					}
					e.Rows[n+k] = s
				}
			}
		}
		return UpdateReport{Inserted: b, Promoted: len(promoted)}
	}, nil
}

// planRemoveLocked plans a Remove of ids and returns its commit, nil for
// an empty batch, under the same locking as planInsertLocked.
func (m *Model) planRemoveLocked(ctx context.Context, ids []int) (func() UpdateReport, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	n := len(m.points)
	ids = slices.Clone(ids)
	sort.Ints(ids)
	for i, id := range ids {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("lafdbscan: remove id %d out of range [0, %d)", id, n)
		}
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("lafdbscan: duplicate remove id %d", id)
		}
	}
	if len(ids) == n {
		return nil, fmt.Errorf("lafdbscan: cannot remove all %d points (a model needs a non-empty point set)", n)
	}
	ov, err := m.overlayLocked(ctx)
	if err != nil {
		return nil, err
	}
	inc := ov.inc
	tau := ov.params.Tau
	rm := make([]bool, n)
	for _, id := range ids {
		rm[id] = true
	}

	// Phase A (cancellable): neighborhoods of the removed points.
	queries := make([][]float32, len(ids))
	for i, id := range ids {
		queries[i] = ov.points[id]
	}
	rlists, err := ov.neighborRows(ctx, queries, nil)
	if err != nil {
		return nil, err
	}
	// Count decrements for the survivors and the demotions they trigger.
	dec := make(map[int]int)
	for _, l := range rlists {
		for _, u := range l {
			if !rm[u] {
				dec[int(u)]++
			}
		}
	}
	var demoted []int
	for u, d := range dec {
		if ov.core[u] && inc.counts[u]-d < tau {
			demoted = append(demoted, u)
		}
	}
	sort.Ints(demoted)

	// Phase B (cancellable): neighborhoods of the demoted points, needed
	// to unhook them from their neighbors' adjacency; row i is demoted[i]'s.
	var drows [][]int32
	if len(demoted) > 0 {
		dq := make([][]float32, len(demoted))
		for i, d := range demoted {
			dq[i] = ov.points[d]
		}
		if drows, err = ov.neighborRows(ctx, dq, nil); err != nil {
			return nil, err
		}
	}

	return func() UpdateReport {
		m.installLocked(ov)
		for u, d := range dec {
			inc.counts[u] -= d
		}
		coreMask := slices.Clone(m.core)
		for _, d := range demoted {
			coreMask[d] = false
		}
		m.core = coreMask
		// Unhook removed points from their neighbors' adjacency and stop
		// sets.
		for i, x := range ids {
			for _, u := range rlists[i] {
				if rm[u] {
					continue
				}
				dropID(inc.adj, int(u), int32(x))
				if inc.stop != nil && inc.gated[x] && inc.stop.Stop[u] {
					dropID(inc.stop.Rows, int(u), int32(x))
				}
			}
		}
		// Unhook demoted points from their neighbors' adjacency (their own
		// rows already hold their core neighbors, which is what a border
		// needs; gate state is untouched, so stop sets are too).
		for i, d := range demoted {
			for _, u := range drows[i] {
				if !rm[u] && int(u) != d {
					dropID(inc.adj, int(u), int32(d))
				}
			}
		}
		// Compaction: ids above each removed point shift down.
		remap := make([]int32, n)
		next := int32(0)
		for i := 0; i < n; i++ {
			if rm[i] {
				remap[i] = -1
			} else {
				remap[i] = next
				next++
			}
		}
		m.points = compactRows(m.points, rm)
		inc.counts = compactRows(inc.counts, rm)
		if inc.gated != nil {
			inc.gated = compactRows(inc.gated, rm)
		}
		m.core = compactRows(m.core, rm)
		inc.adj = compactIDRows(inc.adj, rm, remap)
		if inc.stop != nil {
			inc.stop.Stop = compactRows(inc.stop.Stop, rm)
			inc.stop.Rows = compactIDRows(inc.stop.Rows, rm, remap)
		}
		inc.dyn.DeleteMany(ids) // one structural pass, not k shifts
		return UpdateReport{Removed: len(ids), Demoted: len(demoted)}
	}, nil
}

// dropID removes the first occurrence of id from rows[i] (entries are
// unique by construction).
func dropID(rows [][]int32, i int, id int32) {
	row := rows[i]
	for k, v := range row {
		if v == id {
			rows[i] = slices.Delete(row, k, k+1)
			return
		}
	}
}

// compactRows drops the marked rows, preserving order.
func compactRows[T any](rows []T, rm []bool) []T {
	out := rows[:0]
	for i, r := range rows {
		if !rm[i] {
			out = append(out, r)
		}
	}
	return out
}

// compactIDRows drops the marked rows and remaps every surviving id
// (defensively dropping any id that maps to a removed point).
func compactIDRows(rows [][]int32, rm []bool, remap []int32) [][]int32 {
	out := rows[:0]
	for i, row := range rows {
		if rm[i] {
			continue
		}
		kept := row[:0]
		for _, v := range row {
			if nv := remap[v]; nv >= 0 {
				kept = append(kept, nv)
			}
		}
		out = append(out, kept)
	}
	return out
}

// relabelLocked re-resolves labels, forest and cluster statistics from the
// maintained facts: canonical component labeling, the traversal border
// rule, and — for LAF-DBSCAN with post-processing — the Algorithm 3 replay
// over the complete partial-neighbor map with the model's seed. Pure
// in-memory work; no range queries.
func (m *Model) relabelLocked() {
	inc := m.inc
	labels := cluster.ResolveCanonical(m.core, inc.adj)
	if inc.stop != nil {
		rng := rand.New(rand.NewSource(m.params.Seed))
		core.PostProcess(labels, inc.stop, m.params.Tau, rng)
	}
	k := cluster.RenumberAscending(labels)
	m.labels = labels
	m.forest = cluster.DeriveForest(labels, m.core)
	m.result = &Result{
		Algorithm:   m.result.Algorithm,
		Labels:      labels,
		NumClusters: k,
		Core:        m.core,
		Forest:      m.forest,
	}
}

// reportLocked fills an update report's model totals.
func (m *Model) reportLocked(r UpdateReport) UpdateReport {
	r.Clusters = m.result.NumClusters
	r.Cores = m.numCoresLocked()
	r.Staleness = m.staleness
	return r
}

// ErrRetrainFailed reports that an Insert or Remove was applied but the
// RetrainPolicy it tripped failed: training erred, or the re-gate under
// the new estimator was cancelled. The returned report describes the
// applied update; the model keeps its stale estimator, gate flags, core
// set and staleness, so the next mutation retries the retrain.
var ErrRetrainFailed = errors.New("lafdbscan: estimator retrain failed")

// maybeRetrainLocked applies the RetrainPolicy after a committed update.
// The update itself is already applied; a retrain failure is returned,
// wrapping ErrRetrainFailed, with the (valid) report, and the stale
// estimator stays in place. The retrain re-gates the model, LAF-DBSCAN
// since its first mutation: one engine pass under the new estimator gives
// the facts and the core set (the incremental analogue of refitting with
// it), and the estimator, the facts and the core set are committed
// together once the pass succeeds.
func (m *Model) maybeRetrainLocked(ctx context.Context, report UpdateReport) (UpdateReport, error) {
	if m.retrain.After <= 0 || m.retrain.Train == nil || m.staleness < m.retrain.After ||
		m.method != MethodLAFDBSCAN || m.params.Estimator == nil {
		return report, nil
	}
	est, err := m.retrain.Train(ctx, m.points)
	if err != nil {
		return report, fmt.Errorf("%w after %d updates: %w", ErrRetrainFailed, m.staleness, err)
	}
	p := m.params
	p.Estimator = est
	facts, res, err := engineFacts(ctx, m.index, m.points, m.method, p)
	if err != nil {
		return report, fmt.Errorf("%w: re-gating after %d updates: %w", ErrRetrainFailed, m.staleness, err)
	}
	m.core = res.Core
	m.inc.counts, m.inc.gated = countsOf(facts), facts.Pass
	adoptRows(m.inc, facts, m.core, trackStop(m.method, m.params))
	m.relabelLocked()
	m.params.Estimator = est
	m.staleness = 0
	report.Retrained = true
	return m.reportLocked(report), nil
}
