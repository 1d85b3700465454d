package index

// This file is the index layer's mutation contract, the substrate of
// online model maintenance (Model.Insert / Model.Remove). A DynamicIndex
// is an index a model actually mutates: BruteForce, whose flat scan set
// mutates natively, and hnsw.Graph, which threads inserts into the graph
// and marks deleted nodes dead until a rebuild. The baselines' structures
// (grid, cover tree, k-means tree) are built once per run and never
// mutated.
//
// Ids follow the compacting convention of the point set itself: Insert
// appends at the end (new ids len..len+k-1), DeleteMany removes a batch
// and shifts every id above each removed one down, so a dynamic index
// answers queries as a freshly built index over the current point slice
// would (exactly, for BruteForce).

// DynamicIndex is the mutation contract. Implementations retain and mutate
// the point slice they were built over, so callers sharing that slice with
// other readers must hand the index an owned copy.
type DynamicIndex interface {
	// Insert appends vectors to the indexed set; the new points get ids
	// len..len+k-1 in order.
	Insert(vecs [][]float32)
	// DeleteMany removes a batch of ids (sorted ascending, no duplicates)
	// in one structural pass; ids above each removed point shift down,
	// matching the same removals applied to the underlying point set.
	// DeleteMany([]int{id}) deletes one point.
	DeleteMany(ids []int)
}

// Insert implements DynamicIndex: the vectors join the scan set directly.
func (b *BruteForce) Insert(vecs [][]float32) {
	b.points = append(b.points, vecs...)
	b.growMaxNorm(vecs)
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

var _ DynamicIndex = (*BruteForce)(nil)
