package cluster_test

import (
	"testing"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// identicalPoints builds n copies of the same unit vector: the degenerate
// dataset every algorithm must survive.
func identicalPoints(n int) [][]float32 {
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = []float32{1, 0, 0, 0}
	}
	return pts
}

func TestAllMethodsOnIdenticalPoints(t *testing.T) {
	pts := identicalPoints(30)
	runs := []struct {
		name string
		run  func() (*cluster.Result, error)
	}{
		{"DBSCAN", func() (*cluster.Result, error) {
			return (&core.LAFDBSCAN{Points: pts, Config: openGate(0.3, 3)}).Run()
		}},
		{"DBSCAN++", func() (*cluster.Result, error) {
			return runDBSCANPP(pts, 0.3, 3, 0.5, 1)
		}},
		{"KNN-BLOCK", func() (*cluster.Result, error) {
			return (&cluster.KNNBlock{Points: pts, Eps: 0.3, Tau: 3, Seed: 1}).Run()
		}},
		{"BLOCK-DBSCAN", func() (*cluster.Result, error) {
			return (&cluster.BlockDBSCAN{Points: pts, Eps: 0.3, Tau: 3, Seed: 1}).Run()
		}},
		{"rho-approx", func() (*cluster.Result, error) {
			return (&cluster.RhoApprox{Points: pts, Eps: 0.3, Tau: 3, Rho: 0.5}).Run()
		}},
	}
	for _, r := range runs {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		// All copies are mutual neighbors at distance 0: one cluster, no
		// noise, for every method.
		if res.NumClusters != 1 {
			t.Errorf("%s: clusters = %d, want 1", r.name, res.NumClusters)
		}
		for i, l := range res.Labels {
			if l == cluster.Noise {
				t.Errorf("%s: point %d is noise among identical points", r.name, i)
				break
			}
		}
	}
}

func TestSinglePointDataset(t *testing.T) {
	pts := identicalPoints(1)
	res, err := (&core.LAFDBSCAN{Points: pts, Config: openGate(0.3, 2)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != cluster.Noise {
		t.Error("lonely point with tau=2 must be noise")
	}
	res, err = (&core.LAFDBSCAN{Points: pts, Config: openGate(0.3, 1)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != 1 {
		t.Error("lonely point with tau=1 is its own core")
	}
}

func TestDBSCANEuclideanMetric(t *testing.T) {
	// Two groups on the x axis, Euclidean metric.
	pts := [][]float32{{0}, {0.1}, {0.2}, {5}, {5.1}, {5.2}}
	res, err := (&core.LAFDBSCAN{Points: pts, Index: index.NewBruteForce(pts, vecmath.Euclidean.Func()), Config: openGate(0.5, 2)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("euclidean 1-d clusters = %d, want 2", res.NumClusters)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] == res.Labels[3] {
		t.Errorf("wrong grouping: %v", res.Labels)
	}
}

func TestBlockDBSCANSingleTightBlock(t *testing.T) {
	// All points in one eps/2 ball: exactly one block, one query.
	pts := identicalPoints(20)
	res, err := (&cluster.BlockDBSCAN{Points: pts, Eps: 0.5, Tau: 3, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RangeQueries != 1 {
		t.Errorf("queries = %d, want 1 (single inner core block)", res.RangeQueries)
	}
	if res.NumClusters != 1 {
		t.Errorf("clusters = %d", res.NumClusters)
	}
}
