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
// (neighborRowsLocked), over the model's index and, for an Insert, over
// the batch being added: maintenance computes no distance of its own.
//
// Equality contract. After any sequence of Insert/Remove the model's
// labels are bit-identical to a fresh Fit on the resulting point set for
// the traversal methods, at every Workers/WaveSize setting:
//
//   - MethodDBSCAN;
//   - MethodLAFDBSCAN, with post-processing disabled or enabled. The
//     engine and the overlay both keep the complete partial-neighbor map,
//     which depends on the point set alone.
//
// The sampling/block methods (the ++ variants, KNN-BLOCK, BLOCK-DBSCAN,
// ρ-approximate) keep their fitted core structure and absorb mutations
// under exact density semantics — inserted points become core when their
// true neighbor count reaches Tau, removals demote and split exactly — so
// their divergence from a fresh fit stays bounded by the method's own
// approximation. Mutations renumber clusters canonically (ascending
// minimum core id, the traversal numbering); for the sampling/block
// methods the first mutation may therefore permute cluster ids while
// preserving the partition.

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
	// dyn is the owned brute-force index ensureIncLocked builds over the
	// cloned points; it is Model.index from then on, and Insert/Remove
	// mutate it in step with the point slice.
	dyn index.DynamicIndex
}

// UpdateReport summarizes one Insert or Remove.
type UpdateReport struct {
	// Inserted and Removed count the points this update added or dropped.
	Inserted int `json:"inserted,omitempty"`
	Removed  int `json:"removed,omitempty"`
	// Promoted and Demoted count existing points whose core status flipped.
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
// over the model's current points and swaps the estimator in. For
// MethodLAFDBSCAN the model then re-gates every point and re-resolves
// labels (one engine pass — the incremental analogue of refitting with the
// new estimator); for MethodLAFDBSCANPP only future gate decisions change.
// A failed retrain leaves the applied mutation in place and returns
// ErrRetrainFailed.
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

// gatedMethod reports whether the method places the LAF estimator gate
// before range queries, making gate state part of maintenance.
func (m *Model) gatedMethod() bool {
	return m.method == MethodLAFDBSCAN || m.method == MethodLAFDBSCANPP
}

// trackStop reports whether maintenance must keep the complete partial-
// neighbor map (LAF-DBSCAN's post-processing replay).
func (m *Model) trackStop() bool {
	return m.method == MethodLAFDBSCAN && !m.params.DisablePostProcessing
}

// ensureIncLocked builds the maintenance overlay on first use: it clones
// the point slice (the fitted one may be shared) and replaces the model's
// index with an owned dynamic brute-force index over the clone (exact
// under the model's metric, so predictions are unchanged). The facts it
// seeds — counts, core adjacency and, for LAF, gate flags and the complete
// partial-neighbor map — are the engine's: the fit's own when the model
// kept them, otherwise (HNSW fits, the sampling/block methods, loaded and
// recovered models) those of one engine pass over the owned index
// (engineFactsLocked). The fitted core set is the baseline: for the exact
// methods it equals the density criterion the overlay maintains; for the
// sampling/block methods it is the fitted approximation mutations build
// on. On error (cancellation included) the model is left unmodified.
func (m *Model) ensureIncLocked(ctx context.Context) error {
	if m.inc != nil {
		return nil
	}
	if m.gatedMethod() && m.params.Estimator == nil {
		return fmt.Errorf("lafdbscan: %s maintenance requires the estimator gate, and this model carries none (loaded from a save that could not serialize it?)", m.method)
	}
	points := slices.Clone(m.points)
	dyn := index.NewBruteForce(slices.Clone(points), modelMetric(m.method, m.params.Metric).Func())
	inc := &incState{dyn: dyn}
	facts := m.fit
	var err error
	if facts == nil {
		if facts, _, err = m.engineFactsLocked(ctx, dyn, points, m.params.Estimator); err != nil {
			return err
		}
	}
	if m.method == MethodLAFDBSCANPP {
		// Its engine pass queried every point; the gate flags future
		// promotions read are the estimator's.
		if inc.gated, err = core.Gate(ctx, points, lafConfig(m.params)); err != nil {
			return err
		}
	}
	m.adoptFactsLocked(inc, facts)
	m.fit = nil
	m.points = points
	m.index = dyn
	m.indexBackend = index.BackendBrute
	// The model's index is privately owned and mutated from here on, so it
	// must not leak through Params(): a caller holding Params().Index would
	// race the maintenance writes and watch ids shift underneath it. With
	// the field nil, a refit from Params() builds its own (equivalent)
	// index — labels are identical with or without a shared one. The
	// backend knob follows the index, so Save records the exact scan the
	// model now queries and a reload rebuilds that, not the fitted graph.
	m.params.Index = nil
	m.params.IndexBackend = index.BackendBrute
	m.params.EfSearch = 0
	m.inc = inc
	return nil
}

// engineFactsLocked runs the engine over points on idx, with
// post-processing off (the partial-neighbor map does not depend on it),
// and returns its neighbor facts and result. A LAF-DBSCAN model runs
// LAF-DBSCAN under est; every other model runs exact DBSCAN, the open
// gate querying every point, so every row is a complete neighbor list in
// the index's ascending id order.
func (m *Model) engineFactsLocked(ctx context.Context, idx RangeIndex, points [][]float32, est Estimator) (*core.Facts, *Result, error) {
	method := MethodDBSCAN
	p := m.params
	if m.method == MethodLAFDBSCAN {
		method = MethodLAFDBSCAN
		p.Estimator = est
	}
	p.Index = idx
	p.DisablePostProcessing = true
	facts := new(core.Facts)
	res, err := run(ctx, points, method, p, facts)
	if err != nil {
		return nil, nil, err
	}
	return facts, res, nil
}

// adoptFactsLocked fills inc's counts, adjacency and partial-neighbor map,
// and a LAF-DBSCAN model's gate flags, from an engine run's facts, taking
// their rows over; adjacency is filtered to the model's core set. A
// queried point's count is the length of its row, and its adjacency the
// row filtered in place to the other cores. A stop point's adjacency is
// its row of the complete partial-neighbor map filtered to cores: every
// core ran its query, so that row names every core within Eps. A stop
// point's count stays 0 (see incState.counts).
func (m *Model) adoptFactsLocked(inc *incState, f *core.Facts) {
	inc.counts = make([]int, len(f.Rows))
	inc.adj = f.Rows
	for i, row := range f.Rows {
		if !f.Pass[i] {
			inc.adj[i] = appendCores(nil, f.E.Rows[i], m.core, i)
			continue
		}
		inc.counts[i] = len(row)
		inc.adj[i] = appendCores(row[:0], row, m.core, i)
	}
	if m.method == MethodLAFDBSCAN {
		inc.gated = f.Pass
	}
	if m.trackStop() {
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

// neighborRowsLocked runs one batched Eps-neighborhood query per vector
// over the model's index and, when batch is non-empty, over a throwaway
// brute-force index of batch (the vectors an Insert is adding), and
// returns row i as query i's complete neighbor ids: the index's ids
// ascending, then batch position j as id Len()+j ascending. A query finds
// itself only where an index returns it, as a fitted point does. It is
// maintenance's one source of ε-rows. The caller holds mu. The callback
// runs on pool workers and writes only its own row; the context aborts
// within one wave.
func (m *Model) neighborRowsLocked(ctx context.Context, queries, batch [][]float32) ([][]int32, error) {
	rows := make([][]int32, len(queries))
	search := func(idx RangeIndex, base int) error {
		return index.BatchRangeSearchFunc(ctx, idx, queries, m.params.Eps, m.params.Workers, 0, m.params.WaveSize,
			func(i int, ids []int) {
				row := slices.Grow(rows[i], len(ids))
				for _, id := range ids {
					row = append(row, int32(base+id))
				}
				rows[i] = row
			})
	}
	if err := search(m.index, 0); err != nil {
		return nil, err
	}
	if len(batch) > 0 {
		dist := modelMetric(m.method, m.params.Metric).Func()
		if err := search(index.NewBruteForce(batch, dist), m.index.Len()); err != nil {
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
// For the traversal engines the resulting labels are bit-identical to a
// fresh Fit on the grown point set (see the equality contract at the top
// of this file); total work is proportional to the changed neighborhoods,
// not the dataset.
//
// The first mutation builds the maintenance overlay and replaces the
// model's range index with an owned exact one. A DBSCAN or LAF-DBSCAN
// model fitted on the exact scan builds it from the fit's neighbor lists
// with no range query; any other model pays one engine pass over its
// existing points. On error — cancellation included — the model is left
// exactly as it was, and cancellation aborts within one query wave; the
// exception is ErrRetrainFailed, returned after the insert was applied.
func (m *Model) Insert(ctx context.Context, vectors [][]float32) (UpdateReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(vectors) == 0 {
		return m.reportLocked(UpdateReport{}), nil
	}
	if err := m.checkDimsLocked(vectors); err != nil {
		return UpdateReport{}, err
	}
	if err := m.ensureIncLocked(ctx); err != nil {
		return UpdateReport{}, err
	}
	inc := m.inc
	n := len(m.points)
	b := len(vectors)
	tau := m.params.Tau

	// Phase A (cancellable, no state changes): the new vectors' complete
	// neighborhoods, over the existing points and the batch.
	rows, err := m.neighborRowsLocked(ctx, vectors, vectors)
	if err != nil {
		return UpdateReport{}, err
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
		if newGated, err = core.Gate(ctx, vectors, lafConfig(m.params)); err != nil {
			return UpdateReport{}, err
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
		if !m.core[u] && inc.counts[u]+d >= tau && (inc.gated == nil || inc.gated[u]) {
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
			queries[i] = m.points[w]
		}
		if prows, err = m.neighborRowsLocked(ctx, queries, vectors); err != nil {
			return UpdateReport{}, err
		}
	}

	// ---- Commit: in-memory only, no cancellation points below. ----
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

	// The changed points, promoted then new, and their complete rows. Each
	// one's adjacency is rebuilt from its row: the cores within Eps. A
	// newly-core one also joins the adjacency of its neighbors whose rows
	// are not rebuilt: old points whose core flag did not flip.
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
	// Complete partial-neighbor map: new gated points register with their
	// old stop neighbors (Algorithm 2); new stop points collect their gated
	// neighbors (old and new) from their own side.
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

	m.relabelLocked()
	m.updates += int64(b)
	m.staleness += b
	report := m.reportLocked(UpdateReport{Inserted: b, Promoted: len(promoted)})
	return m.maybeRetrainLocked(ctx, report)
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
// The equality and atomicity guarantees of Insert apply: traversal-engine
// labels match a fresh Fit bit for bit, and a failed or cancelled call
// leaves the model untouched. The first mutation builds the overlay as
// Insert describes.
func (m *Model) Remove(ctx context.Context, ids []int) (UpdateReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ids) == 0 {
		return m.reportLocked(UpdateReport{}), nil
	}
	n := len(m.points)
	ids = slices.Clone(ids)
	sort.Ints(ids)
	for i, id := range ids {
		if id < 0 || id >= n {
			return UpdateReport{}, fmt.Errorf("lafdbscan: remove id %d out of range [0, %d)", id, n)
		}
		if i > 0 && ids[i-1] == id {
			return UpdateReport{}, fmt.Errorf("lafdbscan: duplicate remove id %d", id)
		}
	}
	if len(ids) == n {
		return UpdateReport{}, fmt.Errorf("lafdbscan: cannot remove all %d points (a model needs a non-empty point set)", n)
	}
	if err := m.ensureIncLocked(ctx); err != nil {
		return UpdateReport{}, err
	}
	inc := m.inc
	tau := m.params.Tau
	rm := make([]bool, n)
	for _, id := range ids {
		rm[id] = true
	}

	// Phase A (cancellable): neighborhoods of the removed points.
	queries := make([][]float32, len(ids))
	for i, id := range ids {
		queries[i] = m.points[id]
	}
	rlists, err := m.neighborRowsLocked(ctx, queries, nil)
	if err != nil {
		return UpdateReport{}, err
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
		if m.core[u] && inc.counts[u]-d < tau {
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
			dq[i] = m.points[d]
		}
		if drows, err = m.neighborRowsLocked(ctx, dq, nil); err != nil {
			return UpdateReport{}, err
		}
	}

	// ---- Commit: in-memory only, no cancellation points below. ----
	for u, d := range dec {
		inc.counts[u] -= d
	}
	coreMask := slices.Clone(m.core)
	for _, d := range demoted {
		coreMask[d] = false
	}
	m.core = coreMask
	// Unhook removed points from their neighbors' adjacency and stop sets.
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

	m.relabelLocked()
	m.updates += int64(len(ids))
	m.staleness += len(ids)
	report := m.reportLocked(UpdateReport{Removed: len(ids), Demoted: len(demoted)})
	return m.maybeRetrainLocked(ctx, report)
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
// maintained facts: canonical component labeling, the method's border
// rule, and — for LAF-DBSCAN with post-processing — the Algorithm 3 replay
// over the complete partial-neighbor map with the model's seed. Pure
// in-memory work; no range queries.
func (m *Model) relabelLocked() {
	inc := m.inc
	var nearest func(i int, cands []int32) int32
	if m.nearestCoreSemantics() {
		nearest = func(i int, cands []int32) int32 {
			return int32(nearestCoreLocked(m, m.points[i], cands))
		}
	}
	labels := cluster.ResolveCanonical(m.core, inc.adj, nearest)
	if inc.stop != nil {
		rng := rand.New(rand.NewSource(m.params.Seed))
		core.PostProcess(labels, inc.stop, m.params.Tau, rng)
	}
	k := cluster.RenumberAscending(labels)
	m.labels = labels
	m.forest = cluster.DeriveForest(labels, m.core)
	coreIDs := make([]int, 0, len(m.coreIDs))
	for i, c := range m.core {
		if c {
			coreIDs = append(coreIDs, i)
		}
	}
	m.coreIDs = coreIDs
	m.result = &Result{
		Algorithm:      m.result.Algorithm,
		Labels:         labels,
		NumClusters:    k,
		Core:           m.core,
		Forest:         m.forest,
		RangeQueries:   m.result.RangeQueries,
		SkippedQueries: m.result.SkippedQueries,
		PostMerges:     m.result.PostMerges,
	}
}

// reportLocked fills an update report's model totals.
func (m *Model) reportLocked(r UpdateReport) UpdateReport {
	r.Clusters = m.result.NumClusters
	r.Cores = len(m.coreIDs)
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
// estimator stays in place. For MethodLAFDBSCAN the retrain re-gates: one
// engine pass under the new estimator gives the facts and the core set
// (the incremental analogue of refitting with it), and the estimator, the
// facts and the core set are committed together once the pass succeeds.
func (m *Model) maybeRetrainLocked(ctx context.Context, report UpdateReport) (UpdateReport, error) {
	if m.retrain.After <= 0 || m.retrain.Train == nil || m.staleness < m.retrain.After ||
		!m.gatedMethod() || m.params.Estimator == nil {
		return report, nil
	}
	est, err := m.retrain.Train(ctx, m.points)
	if err != nil {
		return report, fmt.Errorf("%w after %d updates: %w", ErrRetrainFailed, m.staleness, err)
	}
	if m.method == MethodLAFDBSCAN {
		facts, res, err := m.engineFactsLocked(ctx, m.index, m.points, est)
		if err != nil {
			return report, fmt.Errorf("%w: re-gating after %d updates: %w", ErrRetrainFailed, m.staleness, err)
		}
		m.core = res.Core
		m.adoptFactsLocked(m.inc, facts)
		m.relabelLocked()
	}
	m.params.Estimator = est
	m.staleness = 0
	report.Retrained = true
	return m.reportLocked(report), nil
}
