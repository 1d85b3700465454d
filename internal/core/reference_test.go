package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/metrics"
	"lafdbscan/internal/vecmath"
)

// This file holds the paper's point-by-point traversals, the reference
// every engine-equality test compares the wave engines against, and the
// tests that pin the wave machinery to them.
//
// The traversals follow Algorithms 1 and 2 with one change: every point is
// gated before the traversal starts, so every predicted stop point has its
// entry in E before any query runs and E is the complete map. The paper's
// traversal gates a point when it reaches it, so Algorithm 2 misses every
// finder that ran before the stop point was discovered; the engines and
// model maintenance use the complete map, and so does the reference. The
// gate is a pure per-point predicate, so hoisting it changes no query,
// label or core flag, only the rows of E.

// updatePartial is Algorithm 2 (UpdatePartialNeighbors) as the paper's
// traversal runs it: after a range query for p returned neighbors, every
// neighbor with an entry in E records p. Points without one are left
// alone, so the traversal only updates the stop points it has already
// discovered.
func updatePartial(e *cluster.PartialNeighbors, p int, neighbors []int) {
	for _, q := range neighbors {
		if e.Stop[q] {
			e.Rows[q] = append(e.Rows[q], int32(p))
		}
	}
}

// referenceLAFDBSCAN is LAF-DBSCAN as the paper's traversal: it grows one
// cluster at a time from the lowest unvisited point, querying every point
// the gate passes as the expansion reaches it.
func referenceLAFDBSCAN(l *LAFDBSCAN) (*cluster.Result, error) {
	n := len(l.Points)
	cfg := l.Config
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	idx := l.Index
	if idx == nil {
		idx = index.NewBruteForce(l.Points, vecmath.CosineDistanceUnit)
	}
	threshold := cfg.Alpha * float64(cfg.Tau)
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN"), Labels: make([]int, n)}
	labels := res.Labels
	for i := range labels {
		labels[i] = cluster.Undefined
	}
	// LAF gate (lines 6-9 and 22-27), hoisted: predicted stop points skip
	// their range query and get their entry in E up front.
	pass := make([]bool, n)
	e := cluster.NewPartialNeighbors(n)
	for p, v := range l.Points {
		if pass[p] = cfg.Estimator.Estimate(v, cfg.Eps) >= threshold; !pass[p] {
			e.Ensure(p)
			res.SkippedQueries++
		}
	}
	c := 0
	core := make([]bool, n)
	inSeed := make([]bool, n)
	for p := 0; p < n; p++ {
		if labels[p] != cluster.Undefined {
			continue
		}
		if !pass[p] {
			labels[p] = cluster.Noise
			continue
		}
		neighbors := idx.RangeSearch(l.Points[p], cfg.Eps)
		res.RangeQueries++
		updatePartial(e, p, neighbors)
		if len(neighbors) < cfg.Tau {
			labels[p] = cluster.Noise
			continue
		}
		core[p] = true
		c++
		labels[p] = c
		clear(inSeed)
		seeds := make([]int, 0, len(neighbors))
		for _, q := range neighbors {
			if q != p {
				seeds = append(seeds, q)
				inSeed[q] = true
			}
		}
		for k := 0; k < len(seeds); k++ {
			q := seeds[k]
			if labels[q] == cluster.Noise {
				labels[q] = c // border point
			}
			if labels[q] != cluster.Undefined {
				continue
			}
			labels[q] = c
			if !pass[q] {
				continue
			}
			qn := idx.RangeSearch(l.Points[q], cfg.Eps)
			res.RangeQueries++
			updatePartial(e, q, qn)
			if len(qn) >= cfg.Tau {
				core[q] = true
				for _, r := range qn {
					if !inSeed[r] {
						seeds = append(seeds, r)
						inSeed[r] = true
					}
				}
			}
		}
	}
	if !cfg.DisablePostProcessing {
		rng := rand.New(rand.NewSource(cfg.Seed))
		res.PostMerges = PostProcess(labels, e, cfg.Tau, rng)
	}
	res.Core = core
	res.NumClusters = cluster.RenumberAscending(res.Labels)
	return res, nil
}

// referenceLAFDBSCANPP is LAF-DBSCAN++ with core detection run one sample
// point at a time on the calling goroutine, then DBSCAN++'s assignment as
// its definition reads: every non-core point scans every sampled core.
func referenceLAFDBSCANPP(l *LAFDBSCANPP) (*cluster.Result, error) {
	n := len(l.Points)
	cfg := l.Config
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if l.P <= 0 || l.P > 1 {
		return nil, fmt.Errorf("core: LAF-DBSCAN++ sample fraction %v out of (0, 1]", l.P)
	}
	idx := l.Index
	if idx == nil {
		idx = index.NewBruteForce(l.Points, vecmath.CosineDistanceUnit)
	}
	threshold := cfg.Alpha * float64(cfg.Tau)
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN++")}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := rng.Perm(n)[:max(1, int(float64(n)*l.P))]
	e := cluster.NewPartialNeighbors(n)
	var queried []int
	for _, s := range sample {
		if cfg.Estimator.Estimate(l.Points[s], cfg.Eps) < threshold {
			e.Ensure(s)
			res.SkippedQueries++
		} else {
			queried = append(queried, s)
		}
	}
	merger := cluster.NewWaveMerger(n, cfg.Tau, false)
	for _, s := range queried {
		neighbors := idx.RangeSearch(l.Points[s], cfg.Eps)
		res.RangeQueries++
		updatePartial(e, s, neighbors)
		merger.Absorb(s, neighbors)
	}
	// Clusters are numbered by first core in sample order; every other
	// point scans every core for the closest within Eps, the lower id
	// winning a tie.
	core := merger.Core()
	uf := merger.UnionFind()
	labels := make([]int, n)
	clusterID := make(map[int]int)
	var cores []int
	for _, s := range sample {
		if core[s] {
			cores = append(cores, s)
			root := uf.Find(s)
			if clusterID[root] == 0 {
				clusterID[root] = len(clusterID) + 1
			}
			labels[s] = clusterID[root]
		}
	}
	for i := range labels {
		if core[i] {
			continue
		}
		best, bestD := -1, cfg.Eps
		for _, c := range cores {
			d := vecmath.CosineDistanceUnit(l.Points[i], l.Points[c])
			if d < bestD || d == bestD && c < best {
				best, bestD = c, d
			}
		}
		labels[i] = cluster.Noise
		if best >= 0 {
			labels[i] = labels[best]
		}
	}
	res.Labels = labels
	if !cfg.DisablePostProcessing {
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = core
	res.NumClusters = cluster.RenumberAscending(res.Labels)
	return res, nil
}

// waveConfig is openGateConfig with the wave engine's knobs set.
func waveConfig(eps float64, tau, workers, wave int) Config {
	cfg := openGateConfig(eps, tau)
	cfg.Workers, cfg.WaveSize = workers, wave
	return cfg
}

// parallelTestSets returns the synthetic datasets the equivalence tests
// sweep: the three corpus families at test scale.
func parallelTestSets() []*dataset.Dataset {
	return []*dataset.Dataset{
		dataset.GloVeLike(400, 7),
		dataset.MSLike(300, 8),
		dataset.NYTLike(dataset.NYTLikeConfig{N: 300, Seed: 9, NoiseFrac: 0.15}),
		dataset.TwoBlobs(40, 10),
	}
}

func cosDist(a, b []float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return 1 - dot
}

// TestParallelDBSCANMatchesSequential asserts the wave engine's labels
// are identical to the reference DBSCAN traversal's — exact equality,
// which implies the ARI == 1.0 criterion — across datasets, parameters and
// worker counts.
func TestParallelDBSCANMatchesSequential(t *testing.T) {
	for _, d := range parallelTestSets() {
		for _, s := range []struct {
			eps float64
			tau int
		}{{0.4, 3}, {0.55, 5}} {
			seq, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Config: openGateConfig(s.eps, s.tau)})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				name := fmt.Sprintf("%s/eps=%v,tau=%d/w=%d", d.Name, s.eps, s.tau, workers)
				par, err := (&LAFDBSCAN{Points: d.Vectors, Config: waveConfig(s.eps, s.tau, workers, 0)}).Run()
				if err != nil {
					t.Fatal(err)
				}
				if par.NumClusters != seq.NumClusters {
					t.Errorf("%s: %d clusters, sequential %d", name, par.NumClusters, seq.NumClusters)
				}
				if par.RangeQueries != seq.RangeQueries {
					t.Errorf("%s: %d queries, sequential %d", name, par.RangeQueries, seq.RangeQueries)
				}
				for i := range seq.Labels {
					if par.Labels[i] != seq.Labels[i] {
						t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
					}
				}
				ari, err := metrics.ARI(seq.Labels, par.Labels)
				if err != nil {
					t.Fatal(err)
				}
				if ari != 1.0 {
					t.Errorf("%s: ARI = %v, want 1.0", name, ari)
				}
			}
		}
	}
}

// TestWaveEngineMatchesSequentialAcrossWaveSizes pins the wave engine's
// labels to the reference DBSCAN traversal's — exact equality, which
// implies the ARI == 1.0 criterion — across wave sizes from one query per
// wave to one wave holding every query, at several worker counts. Run
// under -race this also exercises the publish-then-scan handshake that
// folds core-core unions into in-flight waves.
func TestWaveEngineMatchesSequentialAcrossWaveSizes(t *testing.T) {
	for _, d := range parallelTestSets() {
		seq, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Config: openGateConfig(0.5, 4)})
		if err != nil {
			t.Fatal(err)
		}
		for _, wave := range []int{0, 1, 7, 64, 100000} {
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				name := fmt.Sprintf("%s/wave=%d/w=%d", d.Name, wave, workers)
				par, err := (&LAFDBSCAN{Points: d.Vectors, Config: waveConfig(0.5, 4, workers, wave)}).Run()
				if err != nil {
					t.Fatal(err)
				}
				for i := range seq.Labels {
					if par.Labels[i] != seq.Labels[i] {
						t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
					}
				}
				ari, err := metrics.ARI(seq.Labels, par.Labels)
				if err != nil {
					t.Fatal(err)
				}
				if ari != 1.0 {
					t.Errorf("%s: ARI = %v, want 1.0", name, ari)
				}
			}
		}
	}
}

// TestWaveMergerMatchesSequentialDBSCAN drives the merger directly with
// precomputed neighbor lists absorbed concurrently in shuffled order — the
// worst case for the publish-then-scan handshake — and checks the resolved
// labels against the reference DBSCAN traversal's.
func TestWaveMergerMatchesSequentialDBSCAN(t *testing.T) {
	d := dataset.GloVeLike(500, 21)
	const eps, tau = 0.5, 4
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	n := d.Len()
	neighbors := make([][]int, n)
	for p, v := range d.Vectors {
		neighbors[p] = idx.RangeSearch(v, eps)
	}
	seq, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Index: idx, Config: openGateConfig(eps, tau)})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Labels

	for trial := 0; trial < 3; trial++ {
		order := rand.New(rand.NewSource(int64(trial))).Perm(n)
		m := cluster.NewWaveMerger(n, tau, true)
		var wg sync.WaitGroup
		const goroutines = 8
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; k < n; k += goroutines {
					p := order[k]
					m.Absorb(p, neighbors[p])
				}
			}(g)
		}
		wg.Wait()
		got := m.Resolve(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: label[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestResolveCanonicalMatchesSequentialDBSCAN pins the incremental
// resolution against the reference traversal: building the maintained facts
// (core mask, core adjacency) from a full DBSCAN run and resolving them
// canonically must reproduce the traversal's labels bit for bit.
func TestResolveCanonicalMatchesSequentialDBSCAN(t *testing.T) {
	pts := dataset.GloVeLike(300, 42).Vectors
	eps, tau := 0.35, 4
	ref, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: pts, Config: openGateConfig(eps, tau)})
	if err != nil {
		t.Fatal(err)
	}
	// Maintained facts, built the way the incremental engine maintains
	// them: counts decide cores, adjacency lists the cores within eps.
	n := len(pts)
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && ref.Core[j] && cosDist(pts[i], pts[j]) < eps {
				adj[i] = append(adj[i], int32(j))
			}
		}
	}
	labels := cluster.ResolveCanonical(ref.Core, adj)
	if !slices.Equal(labels, ref.Labels) {
		t.Fatalf("canonical resolution diverged from sequential DBSCAN")
	}
}

// TestEnginesMatchReferenceWithPostProcessing pins both engines to their
// reference with post-processing on: the reference's E is the complete
// map too, so labels, core flags, merge counts and query counts must be
// identical at every worker count.
func TestEnginesMatchReferenceWithPostProcessing(t *testing.T) {
	d, est := parallelLAFData(t)
	cfg := Config{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3}
	ref, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	refPP, err := referenceLAFDBSCANPP(&LAFDBSCANPP{Points: d.Vectors, P: 0.8, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PostMerges == 0 || refPP.PostMerges == 0 {
		t.Fatalf("post-processing merged %d and %d clusters; the test needs merges", ref.PostMerges, refPP.PostMerges)
	}
	same := func(name string, got, want *cluster.Result) {
		t.Helper()
		if !slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.Core, want.Core) ||
			got.PostMerges != want.PostMerges || got.RangeQueries != want.RangeQueries ||
			got.SkippedQueries != want.SkippedQueries {
			t.Errorf("%s: engine differs from the reference (%d merges, %d/%d queries; reference %d, %d/%d)", name,
				got.PostMerges, got.RangeQueries, got.SkippedQueries, want.PostMerges, want.RangeQueries, want.SkippedQueries)
		}
	}
	for _, workers := range []int{0, 1, 3} {
		c := cfg
		c.Workers = workers
		res, err := (&LAFDBSCAN{Points: d.Vectors, Config: c}).Run()
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("LAF-DBSCAN workers=%d", workers), res, ref)
		res, err = (&LAFDBSCANPP{Points: d.Vectors, P: 0.8, Config: c}).Run()
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("LAF-DBSCAN++ workers=%d", workers), res, refPP)
	}
}
