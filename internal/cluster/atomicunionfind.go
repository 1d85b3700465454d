package cluster

import "sync/atomic"

// AtomicUnionFind is a lock-free disjoint-set forest over the dense key
// range [0, n), safe for concurrent Union and Find from many goroutines
// (Anderson & Woll style: CAS on parent links, path halving). Unions always
// point the higher-indexed root at the lower-indexed one, so the final
// forest is deterministic — the representative of every component is its
// minimum member — regardless of goroutine interleaving. The clustering
// engines rely on that determinism to reproduce the paper's traversal
// numbering exactly.
type AtomicUnionFind struct {
	parent []atomic.Int32
}

// NewAtomicUnionFind returns a forest of n singletons. n must fit in int32.
func NewAtomicUnionFind(n int) *AtomicUnionFind {
	u := &AtomicUnionFind{parent: make([]atomic.Int32, n)}
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
	return u
}

// Find returns the current representative of x, compressing the path with
// CAS halving along the way. Concurrent unions may change the
// representative until all unions have completed; after a happens-before
// barrier (e.g. WaitGroup.Wait) the answer is stable.
//
//lafvet:hotpath
func (u *AtomicUnionFind) Find(x int) int {
	cur := int32(x)
	for {
		p := u.parent[cur].Load()
		if p == cur {
			return int(cur)
		}
		gp := u.parent[p].Load()
		if gp != p {
			// Path halving: splice cur past its parent. Failure just means
			// another goroutine already moved the link; keep walking.
			u.parent[cur].CompareAndSwap(p, gp)
		}
		cur = p
	}
}

// Union merges the sets of a and b, linking the larger root under the
// smaller so roots are canonical minimum members.
//
//lafvet:hotpath
func (u *AtomicUnionFind) Union(a, b int) {
	for {
		ra := int32(u.Find(a))
		rb := int32(u.Find(b))
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Link the higher root under the lower. A failed CAS means rb
		// gained a parent concurrently; re-find and retry.
		if u.parent[rb].CompareAndSwap(rb, ra) {
			return
		}
	}
}

// Same reports whether a and b share a representative. Only meaningful once
// concurrent unions have quiesced.
//
//lafvet:hotpath
func (u *AtomicUnionFind) Same(a, b int) bool { return u.Find(a) == u.Find(b) }
