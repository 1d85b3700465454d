package cluster

// PartialNeighbors is LAF's partial-neighbor map E (Algorithm 1), dense
// over point ids: Stop[p] reports whether p has an entry (p is a predicted
// stop point), and Rows[p] lists the queried points whose range queries
// found p. Every point is queried at most once, so a row holds no
// duplicates. Its order is the order the queries were applied in, which
// the wave engines do not fix, so readers treat a row as a set.
//
// The engines give every predicted stop point its entry with Ensure
// before any query runs, append each executed query to the rows of the
// stop points it finds (Algorithm 2), and read E for border resolution
// and LAF post-processing; the maintenance overlay of a fitted
// model keeps the same rows current under Insert and Remove and hands
// them to post-processing as they are.
type PartialNeighbors struct {
	Stop []bool
	Rows [][]int32
}

// NewPartialNeighbors returns a map over n points with no entries.
func NewPartialNeighbors(n int) *PartialNeighbors {
	return &PartialNeighbors{Stop: make([]bool, n), Rows: make([][]int32, n)}
}

// Ensure gives p an entry when it has none (lines 8 and 27 of Algorithm 1:
// "if P not in E then E(P) := ∅"); an existing entry keeps its row.
func (e *PartialNeighbors) Ensure(p int) { e.Stop[p] = true }
