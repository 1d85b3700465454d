package index

import "slices"

// This file is the index layer's dynamic-mutation contract, the substrate
// of online model maintenance (Model.Insert / Model.Remove): indexes accept
// point insertions and deletions without a full rebuild. Ids follow the
// compacting convention of the point set itself — Insert appends at the end
// (new ids len..len+k-1), Delete(id) removes one point and shifts every id
// above it down by one — so a dynamic index always answers queries exactly
// as a freshly built index over the current point slice would.
//
// BruteForce and Grid mutate natively (their structures are flat). The
// trees keep their fitted structure and absorb mutations through an
// overlay — CoverTree inserts natively (it is insertion-built) and
// tombstones deletions; KMeansTree scans appended points linearly and
// tombstones deletions — until the overlay exceeds rebuildFraction of the
// index, at which point the structure is rebuilt from the live points (the
// rebuild-threshold fallback). Results are identical either side of the
// rebuild for the exact indexes; the approximate KMeansTree answers with
// at least its fitted recall (overlay points are scanned exactly).

// DynamicIndex is the mutation contract. Implementations retain and mutate
// the point slice they were built over, so callers sharing that slice with
// other readers must hand the index an owned copy.
type DynamicIndex interface {
	// Insert appends vectors to the indexed set; the new points get ids
	// len..len+k-1 in order.
	Insert(vecs [][]float32)
	// Delete removes the point with the given id; ids above it shift down
	// by one, matching a slices.Delete on the underlying point set.
	Delete(id int)
	// DeleteMany removes a batch of ids (sorted ascending, no duplicates)
	// in one structural pass — O(n) where a Delete loop would pay O(k·n) —
	// with the same compacting semantics as k successive Deletes applied
	// highest id first.
	DeleteMany(ids []int)
}

// rebuildFraction is the overlay share (tombstones plus, for KMeansTree,
// linearly scanned appends) that triggers a tree rebuild: 1/4 of the index.
const rebuildFraction = 4

// --- BruteForce: native ---

// Insert implements DynamicIndex: the vectors join the scan set directly.
func (b *BruteForce) Insert(vecs [][]float32) {
	b.points = append(b.points, vecs...)
	b.growMaxNorm(vecs)
}

// Delete implements DynamicIndex: the point is removed from the scan set
// and ids above it shift down.
func (b *BruteForce) Delete(id int) {
	b.points = slices.Delete(b.points, id, id+1)
}

// DeleteMany implements DynamicIndex with a single compaction pass.
func (b *BruteForce) DeleteMany(ids []int) {
	out := b.points[:0]
	k := 0
	for i, p := range b.points {
		if k < len(ids) && ids[k] == i {
			k++
			continue
		}
		out = append(out, p)
	}
	clear(b.points[len(out):]) // release the tail's vector references
	b.points = out
}

// --- Grid: native ---

// addToCell files point i into its cell, creating the cell on first use
// (the same logic NewGrid applies during construction).
func (g *Grid) addToCell(i int, p []float32) {
	key, coords := g.cellKey(p)
	c, ok := g.cells[key]
	if !ok {
		dim := len(p)
		c = &gridCell{coords: coords, lo: make([]float32, dim), hi: make([]float32, dim)}
		for j, cc := range coords {
			c.lo[j] = float32(float64(cc) * g.side)
			c.hi[j] = float32(float64(cc+1) * g.side)
		}
		g.cells[key] = c
		g.order = append(g.order, key)
	}
	c.members = append(c.members, i)
}

// Insert implements DynamicIndex: each vector is appended and filed into
// its cell.
func (g *Grid) Insert(vecs [][]float32) {
	for _, v := range vecs {
		g.points = append(g.points, v)
		g.addToCell(len(g.points)-1, v)
	}
}

// Delete implements DynamicIndex: the point leaves its cell (the cell is
// dropped when it empties, so the grid matches a fresh build over the
// remaining points), the point slice compacts, and every surviving member
// id above the deleted one shifts down.
func (g *Grid) Delete(id int) {
	key, _ := g.cellKey(g.points[id])
	c := g.cells[key]
	for i, m := range c.members {
		if m == id {
			c.members = slices.Delete(c.members, i, i+1)
			break
		}
	}
	if len(c.members) == 0 {
		delete(g.cells, key)
		for i, k := range g.order {
			if k == key {
				g.order = slices.Delete(g.order, i, i+1)
				break
			}
		}
	}
	g.points = slices.Delete(g.points, id, id+1)
	for _, k := range g.order {
		members := g.cells[k].members
		for i, m := range members {
			if m > id {
				members[i] = m - 1
			}
		}
	}
}

// DeleteMany implements DynamicIndex: one pass over the cells filters and
// renumbers members (empty cells are dropped, keeping the grid identical
// to a fresh build over the survivors), one pass compacts the points.
func (g *Grid) DeleteMany(ids []int) {
	n := len(g.points)
	remap := make([]int, n)
	k := 0
	for i := 0; i < n; i++ {
		if k < len(ids) && ids[k] == i {
			k++
			remap[i] = -1
		} else {
			remap[i] = i - k
		}
	}
	keptOrder := g.order[:0]
	for _, key := range g.order {
		c := g.cells[key]
		kept := c.members[:0]
		for _, m := range c.members {
			if nm := remap[m]; nm >= 0 {
				kept = append(kept, nm)
			}
		}
		c.members = kept
		if len(kept) == 0 {
			delete(g.cells, key)
			continue
		}
		keptOrder = append(keptOrder, key)
	}
	g.order = keptOrder
	out := g.points[:0]
	for i, p := range g.points {
		if remap[i] >= 0 {
			out = append(out, p)
		}
	}
	clear(g.points[len(out):])
	g.points = out
}

// --- tombstone remap shared by the tree indexes ---

// tombstones tracks the external (compacted) id of every internal (grow-
// only) point slot, with deletions marked dead. A nil ext slice means the
// identity mapping (no deletions yet), keeping the zero-mutation fast path
// allocation-free.
type tombstones struct {
	ext  []int // internal id -> external id, -1 dead; nil = identity
	dead int
}

// extOf returns the external id of internal slot i, or -1 when dead.
func (t *tombstones) extOf(i int) int {
	if t.ext == nil {
		return i
	}
	return t.ext[i]
}

// grow registers k appended internal slots whose external ids continue the
// live sequence.
func (t *tombstones) grow(k, live int) {
	if t.ext == nil {
		return // identity still holds: no deletions, ext == internal
	}
	for j := 0; j < k; j++ {
		t.ext = append(t.ext, live+j)
	}
}

// kill marks the internal slot holding external id e dead and shifts every
// higher external id down by one, returning the killed internal slot.
func (t *tombstones) kill(e, n int) int {
	if t.ext == nil {
		t.ext = make([]int, n)
		for i := range t.ext {
			t.ext[i] = i
		}
	}
	victim := -1
	for i, x := range t.ext {
		switch {
		case x == e:
			victim = i
			t.ext[i] = -1
		case x > e:
			t.ext[i] = x - 1
		}
	}
	t.dead++
	return victim
}

// killMany is kill over a sorted, duplicate-free batch of external ids,
// applying the whole shift in one pass over the internal slots.
func (t *tombstones) killMany(ids []int, n int) {
	if t.ext == nil {
		t.ext = make([]int, n)
		for i := range t.ext {
			t.ext[i] = i
		}
	}
	for i, x := range t.ext {
		if x < 0 {
			continue
		}
		j, found := slices.BinarySearch(ids, x)
		if found {
			t.ext[i] = -1
			continue
		}
		t.ext[i] = x - j // j removed externals precede x
	}
	t.dead += len(ids)
}

// reset clears the mapping after a rebuild over the live points.
func (t *tombstones) reset() { t.ext, t.dead = nil, 0 }

// --- CoverTree: native insert, rebuild-threshold delete ---

// Insert implements DynamicIndex. The cover tree is insertion-built, so new
// points are threaded into the existing structure natively.
func (t *CoverTree) Insert(vecs [][]float32) {
	t.tomb.grow(len(vecs), t.Len())
	for _, v := range vecs {
		t.points = append(t.points, v)
		t.insert(len(t.points) - 1)
	}
}

// Delete implements DynamicIndex via the rebuild-threshold fallback: the
// point is tombstoned (the tree structure keeps its node, queries skip it)
// until tombstones reach 1/rebuildFraction of the index, then the tree is
// rebuilt from the live points.
func (t *CoverTree) Delete(id int) {
	t.tomb.kill(id, len(t.points))
	if t.tomb.dead*rebuildFraction >= t.size {
		t.rebuild()
	}
}

// DeleteMany implements DynamicIndex: the batch is tombstoned in one pass,
// then the rebuild threshold is evaluated once.
func (t *CoverTree) DeleteMany(ids []int) {
	t.tomb.killMany(ids, len(t.points))
	if t.tomb.dead*rebuildFraction >= t.size {
		t.rebuild()
	}
}

// rebuild reconstructs the tree over the live points, compacting ids.
func (t *CoverTree) rebuild() {
	live := make([][]float32, 0, t.Len())
	for i, p := range t.points {
		if t.tomb.extOf(i) >= 0 {
			live = append(live, p)
		}
	}
	t.points = live
	t.tomb.reset()
	t.root = nil
	t.size = 0
	for i := range t.points {
		t.insert(i)
	}
}

// --- KMeansTree: rebuild-threshold insert and delete ---

// Insert implements DynamicIndex via the rebuild-threshold fallback:
// appended points are scanned exactly (a linear overlay next to the tree
// traversal) until the overlay exceeds 1/rebuildFraction of the index,
// then the tree is rebuilt — with its original configuration and seed —
// over the live points.
func (t *KMeansTree) Insert(vecs [][]float32) {
	t.tomb.grow(len(vecs), t.Len())
	t.points = append(t.points, vecs...)
	t.maybeRebuild()
}

// Delete implements DynamicIndex via the same fallback: the point is
// tombstoned and queries skip it until the next rebuild.
func (t *KMeansTree) Delete(id int) {
	t.tomb.kill(id, len(t.points))
	t.maybeRebuild()
}

// DeleteMany implements DynamicIndex: one tombstoning pass, one threshold
// check.
func (t *KMeansTree) DeleteMany(ids []int) {
	t.tomb.killMany(ids, len(t.points))
	t.maybeRebuild()
}

// overlaySize is the number of points answered outside the fitted tree:
// appended points plus tombstones.
func (t *KMeansTree) overlaySize() int {
	return len(t.points) - t.builtLen + t.tomb.dead
}

func (t *KMeansTree) maybeRebuild() {
	if t.overlaySize()*rebuildFraction >= len(t.points) {
		t.rebuild()
	}
}

// rebuild reconstructs the tree over the live points with the stored
// configuration, compacting ids and clearing the overlay.
func (t *KMeansTree) rebuild() {
	live := make([][]float32, 0, t.Len())
	for i, p := range t.points {
		if t.tomb.extOf(i) >= 0 {
			live = append(live, p)
		}
	}
	t.points = live
	t.tomb.reset()
	t.buildTree()
}

var (
	_ DynamicIndex = (*BruteForce)(nil)
	_ DynamicIndex = (*Grid)(nil)
	_ DynamicIndex = (*CoverTree)(nil)
	_ DynamicIndex = (*KMeansTree)(nil)
)
