package lafdbscan

import "testing"

// TestParamsValidate pins the accepted domain and a representative
// rejection for every field.
func TestParamsValidate(t *testing.T) {
	good := Params{Eps: 0.55, Tau: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("minimal params rejected: %v", err)
	}
	full := Params{
		Eps: 2, Tau: 1, Alpha: 2.5, SampleFraction: 1,
		Branching: 10, LeavesRatio: 0.6, Base: 2, RNT: 10, Rho: 1,
		Metric: MetricEuclidean, Workers: WorkersAuto, WaveSize: 1,
		IndexBackend: "hnsw", EfSearch: 128,
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("boundary params rejected: %v", err)
	}

	bad := []struct {
		name string
		mut  func(*Params)
	}{
		{"eps zero", func(p *Params) { p.Eps = 0 }},
		{"eps above 2", func(p *Params) { p.Eps = 2.5 }},
		{"tau zero", func(p *Params) { p.Tau = 0 }},
		{"alpha negative", func(p *Params) { p.Alpha = -1 }},
		{"sample fraction above 1", func(p *Params) { p.SampleFraction = 1.5 }},
		{"branching one", func(p *Params) { p.Branching = 1 }},
		{"leaves ratio above 1", func(p *Params) { p.LeavesRatio = 1.5 }},
		{"base one", func(p *Params) { p.Base = 1 }},
		{"rnt negative", func(p *Params) { p.RNT = -1 }},
		{"rho negative", func(p *Params) { p.Rho = -0.1 }},
		{"metric unknown", func(p *Params) { p.Metric = 99 }},
		{"workers below -1", func(p *Params) { p.Workers = -2 }},
		{"wave negative", func(p *Params) { p.WaveSize = -1 }},
		{"index backend unknown", func(p *Params) { p.IndexBackend = "bogus" }},
		// The grid is built by ρ-approximate DBSCAN itself; it is not a
		// registered backend under any metric.
		{"index backend removed", func(p *Params) { p.IndexBackend = "grid" }},
		{"ef search negative", func(p *Params) { p.EfSearch = -1 }},
	}
	for _, c := range bad {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestEntryPointsValidate checks that the validation actually guards the
// public entry points, not just exists.
func TestEntryPointsValidate(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}}
	bad := Params{Eps: 3, Tau: 5}
	for _, m := range append(Methods(), MethodRhoApprox) {
		if _, err := Cluster(pts, m, bad); err == nil {
			t.Errorf("%s accepted eps=3", m)
		}
	}
}
