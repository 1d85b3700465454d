package hnsw

import (
	"math"
	"slices"
	"testing"
)

// repruneDists is the palette FuzzReprune reads distances from, one byte
// each: small integers, so ties are common, then +Inf, -Inf, NaN and -0.
var repruneDists = []float64{0, 1, 2, 3, 4, 5, 6, 7, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// FuzzReprune checks reprune against the full re-prune it replaces. The
// input picks a degree bound limit, limit..limit+8 candidates with their
// distances to the list's owner, one more point for the new link, the
// distance between every ordered pair of those points, and where the list
// comes from. One heuristic run selects the list from the candidates:
// sorted by sortByDist, as in a link's full re-prune, or taken through the
// layer search's result heap of width limit..n, as in addNode
// (selectLinks). The new link is
// appended and reprune must give the ids, distances and kept count that
// sortByDist and selectNeighbors give over the whole list.
func FuzzReprune(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		dist := func() float64 { return repruneDists[int(next())%len(repruneDists)] }
		limit := 1 + int(next())%8
		n := limit + int(next())%9 // candidates; point n is the new link
		owner := make([]float64, n+1)
		for i := range owner {
			owner[i] = dist()
		}
		pair := make([][]float64, n+1)
		pts := make([][]float32, n+1)
		for i := range pair {
			pair[i] = make([]float64, n+1)
			for j := range pair[i] {
				pair[i][j] = dist()
			}
			pts[i] = []float32{float32(i)}
		}
		g := &Graph{
			points: pts,
			dist:   func(a, b []float32) float64 { return pair[int(a[0])][int(b[0])] },
			cfg:    Config{M: 4, EfConstruction: 17}.withDefaults(),
		}
		ps := g.newPruneScratch()

		var list []int32
		var listD []float64
		var kept int
		if mode := int(next()); mode%2 == 0 {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(i)
			}
			ds := slices.Clone(owner[:n])
			sortByDist(ids, ds)
			list, listD, kept = g.selectNeighbors(ps, ids, ds, limit)
		} else {
			ef := limit + mode/2%(n-limit+1) // as searchLayer offers them
			sc := new(searchCtx)
			sc.reset(n, ef)
			for i, d := range owner[:n] {
				if sc.resN < ef || d < sc.resD[0] {
					sc.resPush(int32(i), d, ef)
				}
			}
			ids, ds := sc.resExtract()
			list, listD, kept = g.selectLinks(ps, ids, ds, limit)
		}
		list = append(slices.Clone(list), int32(n))
		listD = append(slices.Clone(listD), owner[n])

		fullIDs, fullD := slices.Clone(list), slices.Clone(listD)
		sortByDist(fullIDs, fullD)
		want, wantD, wantKept := g.selectNeighbors(ps, fullIDs, fullD, limit)
		want, wantD = slices.Clone(want), slices.Clone(wantD)

		got, gotD := slices.Clone(list), slices.Clone(listD)
		gotKept := g.reprune(ps, got, gotD, kept)
		if !slices.Equal(got[:limit], want) || gotKept != wantKept {
			t.Fatalf("list %v (kept %d) + link %d: reprune %v kept %d, full %v kept %d",
				list[:limit], kept, n, got[:limit], gotKept, want, wantKept)
		}
		for k := range wantD {
			if math.Float64bits(gotD[k]) != math.Float64bits(wantD[k]) {
				t.Fatalf("distance %d: reprune %v, full %v", k, gotD[k], wantD[k])
			}
		}
	})
}
