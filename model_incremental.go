package lafdbscan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// This file is online model maintenance: Model.Insert and Model.Remove
// evolve a fitted clustering with the data instead of re-clustering from
// scratch — incremental DBSCAN in the spirit of Ester et al. (1998), built
// on the order-free facts the parallel engines established (PR 1-2): a
// labeling is a pure function of the core set, the ε-connectivity among
// core points, each point's adjacent cores, and (for LAF post-processing)
// the complete partial-neighbor map. The maintenance overlay (incState)
// keeps exactly those facts and updates them from the Eps-neighborhoods of
// the changed points only; labels are then re-resolved canonically
// (cluster.ResolveCanonical) in memory, with no further range queries.
//
// Equality contract. After any sequence of Insert/Remove the model's
// labels are bit-identical to a fresh Fit on the resulting point set for
// the traversal engines:
//
//   - MethodDBSCAN, sequential and parallel, at every Workers/WaveSize;
//   - MethodLAFDBSCAN with post-processing disabled, sequential and
//     parallel;
//   - MethodLAFDBSCAN with post-processing enabled under the parallel
//     engines' complete partial-neighbor map (the sequential traversal's
//     map depends on visit order and is not locally maintainable; the
//     complete map is its order-free superset, so the incremental repair
//     pass sees at least as much evidence).
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
	// counts[i] is |N(i)|, the true Eps-neighbor count including i itself,
	// for every model point — the density side of the core criterion.
	counts []int
	// gated[i] is the LAF estimator gate decision for point i (estimate >=
	// Alpha*Tau), nil for non-LAF methods. Gating is a pure per-point
	// function of the estimator, so it is computed once and only changes
	// on retrain.
	gated []bool
	// adj[i] lists the current core points within Eps of i (excluding i):
	// the ε-connectivity graph restricted to cores, plus every border's
	// adjacent-core set — the two facts label resolution needs.
	adj [][]int32
	// stop[i] lists the gated points within Eps of stop point i (nil rows
	// for gated points): the complete partial-neighbor map, maintained only
	// for LAF-DBSCAN with post-processing enabled.
	stop [][]int32
	// dyn is the owned brute-force index ensureIncLocked builds over the
	// cloned points; it is Model.index from then on, and Insert/Remove
	// mutate it in step with the point slice.
	dyn index.DynamicIndex
	// dist is the model's metric function, for new-point pair distances
	// and nearest-core tie-breaks.
	dist vecmath.DistanceFunc
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
// labels (one batched pass — the incremental analogue of refitting with the
// new estimator); for MethodLAFDBSCANPP only future gate decisions change.
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

// pool returns the maintenance worker-pool knobs, shared with Predict.
func (m *Model) pool() (workers, grain, wave int) {
	return m.params.Workers, m.params.BatchSize, m.params.WaveSize
}

// ensureIncLocked builds the maintenance overlay on first use: it clones
// the point slice (the fitted one may be shared), replaces the model's
// index with an owned dynamic brute-force index over the clone (exact
// under the model's metric, so predictions are unchanged), and runs one
// batched neighborhood pass to seed counts, core adjacency and — for LAF —
// gate flags and the complete partial-neighbor map. The fitted core set is
// the baseline: for the exact methods it equals the density criterion the
// overlay maintains; for the sampling/block methods it is the fitted
// approximation mutations build on. On error (cancellation included) the
// model is left unmodified.
func (m *Model) ensureIncLocked(ctx context.Context) error {
	if m.inc != nil {
		return nil
	}
	if m.gatedMethod() && m.params.Estimator == nil {
		return fmt.Errorf("lafdbscan: %s maintenance requires the estimator gate, and this model carries none (loaded from a save that could not serialize it?)", m.method)
	}
	points := slices.Clone(m.points)
	dist := modelMetric(m.method, m.params.Metric).Func()
	dyn := index.NewBruteForce(slices.Clone(points), dist)
	workers, grain, wave := m.pool()

	var gated []bool
	if m.gatedMethod() {
		gated = m.gateLocked(points)
	}
	counts, adj, stop, err := m.scanFacts(ctx, dyn, points, m.core, gated, workers, grain, wave)
	if err != nil {
		return err
	}
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
	m.inc = &incState{counts: counts, gated: gated, adj: adj, stop: stop, dyn: dyn, dist: dist}
	return nil
}

// gateLocked returns LAF's estimator gate decision for each point
// (estimate >= Alpha*Tau) under the current estimator. The caller holds mu.
func (m *Model) gateLocked(points [][]float32) []bool {
	workers, grain, _ := m.pool()
	threshold := m.params.Alpha * float64(m.params.Tau)
	est := m.params.Estimator
	gated := make([]bool, len(points))
	index.ForEach(len(points), workers, grain, func(i int) {
		gated[i] = est.Estimate(points[i], m.params.Eps) >= threshold
	})
	return gated
}

// neighborRowsLocked runs one batched Eps-neighborhood query per vector
// over the model's index and returns row i as query i's neighbor ids. The
// caller holds mu. The callback runs on pool workers and writes only its
// own row; the context aborts within one wave.
func (m *Model) neighborRowsLocked(ctx context.Context, queries [][]float32) ([][]int32, error) {
	workers, grain, wave := m.pool()
	rows := make([][]int32, len(queries))
	err := index.BatchRangeSearchFunc(ctx, m.index, queries, m.params.Eps, workers, grain, wave,
		func(i int, ids []int) {
			row := make([]int32, len(ids))
			for j, id := range ids {
				row[j] = int32(id)
			}
			rows[i] = row
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// scanFacts runs one batched neighborhood pass over every point, folding
// each list into counts, adjacency to coreMask, and (when both gated and
// stop tracking apply) the complete partial-neighbor map. Lists are
// dropped per wave; the context aborts within one wave.
func (m *Model) scanFacts(ctx context.Context, idx RangeIndex, points [][]float32, coreMask, gated []bool, workers, grain, wave int) (counts []int, adj, stop [][]int32, err error) {
	n := len(points)
	counts = make([]int, n)
	adj = make([][]int32, n)
	if gated != nil && m.trackStop() {
		stop = make([][]int32, n)
	}
	err = index.BatchRangeSearchFunc(ctx, idx, points, m.params.Eps, workers, grain, wave,
		func(i int, ids []int) {
			counts[i] = len(ids)
			var a []int32
			for _, q := range ids {
				if q != i && coreMask[q] {
					a = append(a, int32(q))
				}
			}
			adj[i] = a
			if stop != nil && !gated[i] {
				var s []int32
				for _, q := range ids {
					if gated[q] {
						s = append(s, int32(q))
					}
				}
				stop[i] = s
			}
		})
	if err != nil {
		return nil, nil, nil, err
	}
	return counts, adj, stop, nil
}

// Insert adds vectors to the model and folds them into the clustering
// online: each new point's Eps-neighborhood is queried once (batched
// through the wave engine, like fitting and prediction), neighbor counts
// update, existing points crossing Tau are promoted to core (one
// neighborhood query each), new core points may merge existing clusters
// through the ε-connectivity forest, and labels are re-resolved in memory.
// New points get ids Len()..Len()+k-1. Vectors must be unit-normalized
// with the model's dimensionality; any other length fails the whole batch
// with ErrDimensionMismatch.
//
// For the traversal engines the resulting labels are bit-identical to a
// fresh Fit on the grown point set (see the equality contract at the top
// of this file); total work is proportional to the changed neighborhoods,
// not the dataset.
//
// The first mutation builds the maintenance overlay with one batched pass
// over the existing points and replaces the model's range index with an
// owned exact one. On error — cancellation included — the model is left
// exactly as it was; cancellation aborts within one query wave.
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
	eps, tau := m.params.Eps, m.params.Tau
	workers, grain, _ := m.pool()

	// Phase A (cancellable, no state changes): neighborhoods of the new
	// vectors over the existing points.
	lists, err := m.neighborRowsLocked(ctx, vectors)
	if err != nil {
		return UpdateReport{}, err
	}
	// Pairwise adjacency among the new vectors themselves: row-parallel
	// over the worker pool (each iteration writes only its own row, paying
	// each distance from both sides for race freedom), in bounded chunks
	// so cancellation keeps wave-scale latency on bulk batches.
	newNbrs := make([][]int32, b)
	const pairChunk = 1024
	for lo := 0; lo < b; lo += pairChunk {
		if err := ctx.Err(); err != nil {
			return UpdateReport{}, err
		}
		hi := min(lo+pairChunk, b)
		index.ForEach(hi-lo, workers, grain, func(k int) {
			i := lo + k
			var row []int32
			for j := 0; j < b; j++ {
				if j != i && inc.dist(vectors[i], vectors[j]) < eps {
					row = append(row, int32(j))
				}
			}
			newNbrs[i] = row
		})
	}
	// Count updates and gate decisions.
	newCounts := make([]int, b)
	delta := make(map[int]int)
	for k := range vectors {
		newCounts[k] = len(lists[k]) + 1 + len(newNbrs[k])
		for _, u := range lists[k] {
			delta[int(u)]++
		}
	}
	var newGated []bool
	if inc.gated != nil {
		newGated = m.gateLocked(vectors)
	}
	// Core transitions: new points by the (gated) density criterion,
	// existing non-core points crossing Tau promoted.
	newCore := make([]bool, b)
	for k := range vectors {
		newCore[k] = (newGated == nil || newGated[k]) && newCounts[k] >= tau
	}
	var promoted []int
	for u, d := range delta {
		if !m.core[u] && inc.counts[u]+d >= tau && (inc.gated == nil || inc.gated[u]) {
			promoted = append(promoted, u)
		}
	}
	sort.Ints(promoted)

	// Phase B (cancellable): neighborhoods of the promoted points, the
	// bounded re-expansion that wires them into the core graph. Rows come
	// back indexed by query position; the map is built after the pool
	// barrier.
	plists := make(map[int][]int32, len(promoted))
	if len(promoted) > 0 {
		queries := make([][]float32, len(promoted))
		for i, w := range promoted {
			queries[i] = m.points[w]
		}
		rows, err := m.neighborRowsLocked(ctx, queries)
		if err != nil {
			return UpdateReport{}, err
		}
		for i, w := range promoted {
			plists[w] = rows[i]
		}
	}
	// New-point neighbors of each promoted point, read off phase A's lists
	// by symmetry (no extra distance work).
	promotedNew := make(map[int][]int32, len(promoted))
	promotedSet := make(map[int]bool, len(promoted))
	for _, w := range promoted {
		promotedSet[w] = true
	}
	for k := range vectors {
		for _, u := range lists[k] {
			if promotedSet[int(u)] {
				promotedNew[int(u)] = append(promotedNew[int(u)], int32(n+k))
			}
		}
	}

	// ---- Commit: in-memory only, no cancellation points below. ----
	inc.counts = append(inc.counts, newCounts...)
	for u, d := range delta {
		inc.counts[u] += d
	}
	if inc.gated != nil {
		inc.gated = append(inc.gated, newGated...)
	}
	coreMask := slices.Clone(m.core)
	coreMask = append(coreMask, newCore...)
	for _, w := range promoted {
		coreMask[w] = true
	}
	m.core = coreMask
	m.points = append(m.points, vectors...)
	inc.dyn.Insert(vectors)
	inc.adj = append(inc.adj, make([][]int32, b)...)
	if inc.stop != nil {
		inc.stop = append(inc.stop, make([][]int32, b)...)
	}

	// fullOf assembles a changed point's complete neighbor id set (old
	// neighbors from the phase queries, new ones from phase A's symmetry).
	fullOf := func(c int) []int32 {
		if c >= n {
			k := c - n
			full := slices.Clone(lists[k])
			for _, j := range newNbrs[k] {
				full = append(full, int32(n)+j)
			}
			return full
		}
		return append(slices.Clone(plists[c]), promotedNew[c]...)
	}
	newlyCore := make(map[int]bool, len(promoted)+b)
	for _, w := range promoted {
		newlyCore[w] = true
	}
	var newlyCoreIDs []int
	newlyCoreIDs = append(newlyCoreIDs, promoted...)
	for k := range vectors {
		if newCore[k] {
			newlyCore[n+k] = true
			newlyCoreIDs = append(newlyCoreIDs, n+k)
		}
	}
	// Wire every newly-core point into the adjacency: its own row holds
	// its core neighbors; every neighbor outside the newly-core set gains
	// it (pairs within the set are covered symmetrically by their own
	// rows).
	for _, c := range newlyCoreIDs {
		full := fullOf(c)
		var a []int32
		for _, u := range full {
			ui := int(u)
			if ui == c {
				continue
			}
			if m.core[ui] {
				a = append(a, u)
			}
			if !newlyCore[ui] {
				inc.adj[ui] = append(inc.adj[ui], int32(c))
			}
		}
		inc.adj[c] = a
	}
	// Rows for the new non-core points: their adjacent cores.
	for k := range vectors {
		if newCore[k] {
			continue
		}
		var a []int32
		for _, u := range fullOf(n + k) {
			if int(u) != n+k && m.core[u] {
				a = append(a, u)
			}
		}
		inc.adj[n+k] = a
	}
	// Complete partial-neighbor map: new gated points register with their
	// old stop neighbors; new stop points collect their gated neighbors
	// (old and new) from their own side.
	if inc.stop != nil {
		for k := range vectors {
			if newGated[k] {
				for _, u := range lists[k] {
					if !inc.gated[u] {
						inc.stop[u] = append(inc.stop[u], int32(n+k))
					}
				}
			} else {
				var s []int32
				for _, u := range fullOf(n + k) {
					if inc.gated[u] {
						s = append(s, u)
					}
				}
				inc.stop[n+k] = s
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
// leaves the model untouched.
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
	rlists, err := m.neighborRowsLocked(ctx, queries)
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
	// to unhook them from their neighbors' adjacency. Same slice-then-map
	// shape as Insert's phase B.
	dlists := make(map[int][]int32, len(demoted))
	if len(demoted) > 0 {
		dq := make([][]float32, len(demoted))
		for i, d := range demoted {
			dq[i] = m.points[d]
		}
		rows, err := m.neighborRowsLocked(ctx, dq)
		if err != nil {
			return UpdateReport{}, err
		}
		for i, d := range demoted {
			dlists[d] = rows[i]
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
			if inc.stop != nil && inc.gated[x] && !inc.gated[u] {
				dropID(inc.stop, int(u), int32(x))
			}
		}
	}
	// Unhook demoted points from their neighbors' adjacency (their own
	// rows already hold their core neighbors, which is what a border
	// needs; gate state is untouched, so stop sets are too).
	for _, d := range demoted {
		for _, u := range dlists[d] {
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
		inc.stop = compactIDRows(inc.stop, rm, remap)
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
			best, bestD := int32(-1), m.params.Eps
			for _, c := range cands {
				if !m.core[c] {
					continue
				}
				if d := vecmath.CosineDistanceUnit(m.points[i], m.points[c]); d < bestD {
					best, bestD = c, d
				}
			}
			return best
		}
	}
	labels := cluster.ResolveCanonical(m.core, inc.adj, nearest)
	if inc.stop != nil {
		e := make(core.PartialNeighbors, len(inc.stop))
		for i, row := range inc.stop {
			if inc.gated[i] {
				continue
			}
			set := make(map[int]struct{}, len(row))
			for _, q := range row {
				set[int(q)] = struct{}{}
			}
			e[i] = set
		}
		rng := rand.New(rand.NewSource(m.params.Seed))
		core.PostProcess(labels, e, m.params.Tau, rng)
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

// maybeRetrainLocked applies the RetrainPolicy after a committed update.
// The update itself is already applied; a retrain failure is returned with
// the (valid) report, and the stale estimator stays in place.
func (m *Model) maybeRetrainLocked(ctx context.Context, report UpdateReport) (UpdateReport, error) {
	if m.retrain.After <= 0 || m.retrain.Train == nil || m.staleness < m.retrain.After ||
		!m.gatedMethod() || m.params.Estimator == nil {
		return report, nil
	}
	est, err := m.retrain.Train(ctx, m.points)
	if err != nil {
		return report, fmt.Errorf("lafdbscan: estimator retrain after %d updates: %w", m.staleness, err)
	}
	m.params.Estimator = est
	m.staleness = 0
	report.Retrained = true
	report.Staleness = 0
	if m.method == MethodLAFDBSCAN {
		// Re-gate: the new estimator changes which points query, hence the
		// core set; rebuild the maintained facts with one batched pass and
		// re-resolve. This is the incremental analogue of refitting with
		// the retrained estimator.
		if err := m.regateLocked(ctx); err != nil {
			return report, fmt.Errorf("lafdbscan: re-gating after retrain: %w", err)
		}
		report = m.reportLocked(report)
	}
	return report, nil
}

// regateLocked recomputes gate flags under the current estimator, derives
// the new core set from the maintained density counts, and rebuilds
// adjacency and the partial-neighbor map with one batched pass.
func (m *Model) regateLocked(ctx context.Context) error {
	inc := m.inc
	n := len(m.points)
	workers, grain, wave := m.pool()
	gated := m.gateLocked(m.points)
	coreMask := make([]bool, n)
	for i := range coreMask {
		coreMask[i] = gated[i] && inc.counts[i] >= m.params.Tau
	}
	counts, adj, stop, err := m.scanFacts(ctx, m.index, m.points, coreMask, gated, workers, grain, wave)
	if err != nil {
		return err
	}
	inc.counts, inc.gated, inc.adj, inc.stop = counts, gated, adj, stop
	m.core = coreMask
	m.relabelLocked()
	return nil
}
