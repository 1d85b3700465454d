package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// BlockDBSCAN is BLOCK-DBSCAN (Chen et al. 2021): an approximate DBSCAN
// variant built on cover-tree range queries. It batches points into "inner
// core blocks" — ε/2-balls whose members are pairwise within ε, so a block
// of at least Tau points certifies every member core with a single query —
// and merges blocks with an approximate minimum-distance test capped at RNT
// iterations. Points outside any block are handled individually.
//
// The cover tree needs a true metric, so this implementation works in
// Euclidean space: the cosine threshold is converted with Equation 1 of the
// paper (valid because all inputs are unit-normalized).
type BlockDBSCAN struct {
	Points [][]float32
	// Eps is the cosine-distance threshold (converted internally).
	Eps float64
	Tau int
	// Base is the cover tree expansion base (the paper's "basis", default
	// 2.0, swept 1.1–5 in the trade-off experiments).
	Base float64
	// RNT caps the iterations of the approximate inter-block
	// minimum-distance computation (paper default 10).
	RNT int
	// Seed drives the random pair sampling in block merging.
	Seed int64
}

// Run clusters the points.
func (b *BlockDBSCAN) Run() (*Result, error) { return b.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every CtxCheckEvery cover-tree range queries of the block-carving and
// outer-point phases (where all the range queries happen).
func (b *BlockDBSCAN) RunContext(ctx context.Context) (*Result, error) {
	n := len(b.Points)
	if err := validateParams(n, b.Eps, b.Tau); err != nil {
		return nil, err
	}
	base := b.Base
	if base == 0 {
		base = 2.0
	}
	if base <= 1 {
		return nil, fmt.Errorf("cluster: BLOCK-DBSCAN cover tree base %v must be > 1", base)
	}
	rnt := b.RNT
	if rnt <= 0 {
		rnt = 10
	}
	start := time.Now()
	epsEuc := vecmath.CosineToEuclidean(b.Eps)
	tree := index.NewCoverTree(b.Points, vecmath.EuclideanDistance, base)
	res := &Result{Algorithm: "BLOCK-DBSCAN"}
	rng := rand.New(rand.NewSource(b.Seed))

	// Phase 1: carve inner core blocks with ε/2 queries.
	type block struct {
		center  int
		members []int
	}
	var blocks []block
	blockOf := make([]int, n) // -1: unassigned, else block index
	for i := range blockOf {
		blockOf[i] = -1
	}
	processed := make([]bool, n)
	var outer []int
	for p := 0; p < n; p++ {
		if processed[p] {
			continue
		}
		if err := CheckCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		ball := tree.RangeSearch(b.Points[p], epsEuc/2)
		res.RangeQueries++
		// Only points not yet claimed by another block join this one.
		free := ball[:0]
		for _, q := range ball {
			if !processed[q] {
				free = append(free, q)
			}
		}
		if len(free) >= b.Tau {
			id := len(blocks)
			blocks = append(blocks, block{center: p, members: append([]int(nil), free...)})
			for _, q := range free {
				processed[q] = true
				blockOf[q] = id
			}
		} else {
			processed[p] = true
			outer = append(outer, p)
		}
	}

	// Phase 2: classify outer points exactly and remember their neighbor
	// lists for border assignment.
	outerNeighbors := make(map[int][]int, len(outer))
	outerCore := make(map[int]bool, len(outer))
	for _, p := range outer {
		if err := CheckCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		neighbors := tree.RangeSearch(b.Points[p], epsEuc)
		res.RangeQueries++
		outerNeighbors[p] = neighbors
		outerCore[p] = len(neighbors) >= b.Tau
	}

	// Phase 3: merge blocks. Blocks whose centers are within ε merge
	// outright; blocks that might still touch (center distance below
	// ε + ε/2 + ε/2 = 2ε) get the approximate min-distance test: up to RNT
	// sampled cross-pairs plus the members closest to the other center.
	uf := NewUnionFind()
	for i := range blocks {
		uf.Find(i)
	}
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			cd := vecmath.EuclideanDistance(b.Points[blocks[i].center], b.Points[blocks[j].center])
			if cd >= 2*epsEuc {
				continue // no member pair can be within ε
			}
			if cd < epsEuc {
				uf.Union(i, j)
				continue
			}
			if blocksTouch(b.Points, blocks[i].members, blocks[j].members, blocks[i].center, blocks[j].center, epsEuc, rnt, rng) {
				uf.Union(i, j)
			}
		}
	}

	// Outer core points union with any block or outer core within ε; they
	// participate as singleton "blocks" keyed past the block id space.
	outerKey := func(p int) int { return len(blocks) + p }
	for _, p := range outer {
		if !outerCore[p] {
			continue
		}
		uf.Find(outerKey(p))
		for _, q := range outerNeighbors[p] {
			if bid := blockOf[q]; bid >= 0 {
				uf.Union(outerKey(p), bid)
			} else if outerCore[q] {
				uf.Union(outerKey(p), outerKey(q))
			}
		}
	}

	// Phase 4: emit labels. Block members and outer cores take their
	// component's id; border points (outer non-core with a core neighbor)
	// adopt a neighboring core's cluster; the rest is noise.
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Undefined
	}
	clusterID := make(map[int]int)
	next := 0
	idFor := func(key int) int {
		root := uf.Find(key)
		id, ok := clusterID[root]
		if !ok {
			next++
			id = next
			clusterID[root] = id
		}
		return id
	}
	for bid, blk := range blocks {
		id := idFor(bid)
		for _, q := range blk.members {
			labels[q] = id
		}
	}
	for _, p := range outer {
		if outerCore[p] {
			labels[p] = idFor(outerKey(p))
		}
	}
	for _, p := range outer {
		if outerCore[p] {
			continue
		}
		labels[p] = Noise
		for _, q := range outerNeighbors[p] {
			if blockOf[q] >= 0 || outerCore[q] {
				labels[p] = labels[q]
				break
			}
		}
	}

	// Every block member is certified core (an ε/2-ball of >= Tau points
	// puts all members pairwise within ε), plus the exactly-classified
	// outer cores.
	coreMask := make([]bool, n)
	for i := range coreMask {
		coreMask[i] = blockOf[i] >= 0
	}
	for _, p := range outer {
		if outerCore[p] {
			coreMask[p] = true
		}
	}
	res.Labels = labels
	res.Core = coreMask
	res.Forest = DeriveForest(labels, coreMask)
	res.Elapsed = time.Since(start)
	res.finalize()
	return res, nil
}

// blocksTouch approximates "min distance between the blocks < eps" with at
// most rnt iterations: each iteration checks the cross pair closest to the
// other block's center plus a random pair. It can miss a touching pair —
// that controlled inexactness is BLOCK-DBSCAN's documented approximation.
func blocksTouch(points [][]float32, a, b []int, ca, cb int, eps float64, rnt int, rng *rand.Rand) bool {
	// Members of a closest to cb, and of b closest to ca.
	bestA, bestAD := a[0], vecmath.EuclideanDistance(points[a[0]], points[cb])
	for _, p := range a[1:] {
		if d := vecmath.EuclideanDistance(points[p], points[cb]); d < bestAD {
			bestA, bestAD = p, d
		}
	}
	bestB, bestBD := b[0], vecmath.EuclideanDistance(points[b[0]], points[ca])
	for _, p := range b[1:] {
		if d := vecmath.EuclideanDistance(points[p], points[ca]); d < bestBD {
			bestB, bestBD = p, d
		}
	}
	if vecmath.EuclideanDistance(points[bestA], points[bestB]) < eps {
		return true
	}
	for it := 0; it < rnt; it++ {
		pa := a[rng.Intn(len(a))]
		pb := b[rng.Intn(len(b))]
		if vecmath.EuclideanDistance(points[pa], points[pb]) < eps {
			return true
		}
	}
	return false
}
