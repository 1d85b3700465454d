package lafdbscan

import "fmt"

// Validate checks that every set field of p lies in its documented domain.
// All clustering entry points call it before running, so a bad parameter
// fails fast with a descriptive error instead of producing a degenerate
// clustering; the CLI tools and the lafserve HTTP server reuse it for their
// usage errors and 400 responses, keeping the accepted domain identical
// across every way into the library.
//
// Zero values of optional fields mean "use the default" and always pass:
// Alpha 0 selects the neutral 1.0, SampleFraction matters only to the ++
// variants (which additionally require it to be positive), Branching /
// LeavesRatio / Base / RNT / Rho fall back to the paper's settings, and
// Workers 0 selects the sequential engine. IndexBackend must be "" (exact
// default), IndexBackendAuto, or a registered name ("brute", "hnsw");
// anything else fails with an error wrapping ErrUnknownIndexBackend.
func (p Params) Validate() error {
	// Every rejection names the offending field and the value it carried in
	// one uniform shape, so a CLI usage error, an HTTP 400 body and a test
	// failure all read the same and point straight at the knob to fix.
	fail := func(field string, value any, constraint string) error {
		return fmt.Errorf("lafdbscan: invalid %s = %v: %s", field, value, constraint)
	}
	// Both supported metrics are bounded by 2 on unit vectors (cosine
	// distance by definition, Euclidean via Equation 1), so thresholds
	// beyond 2 mean every point neighbors every other — a parameterization
	// mistake, not a clustering.
	if p.Eps <= 0 || p.Eps > 2 {
		return fail("Eps", p.Eps, "must lie in (0, 2]")
	}
	if p.Tau < 1 {
		return fail("Tau", p.Tau, "must be at least 1")
	}
	if p.Alpha < 0 {
		return fail("Alpha", p.Alpha, "must be non-negative (0 selects the neutral 1.0)")
	}
	if p.SampleFraction < 0 || p.SampleFraction > 1 {
		return fail("SampleFraction", p.SampleFraction, "must lie in [0, 1]")
	}
	if p.Branching != 0 && p.Branching < 2 {
		return fail("Branching", p.Branching, "must be at least 2 (0 selects the default)")
	}
	if p.LeavesRatio < 0 || p.LeavesRatio > 1 {
		return fail("LeavesRatio", p.LeavesRatio, "must lie in [0, 1]")
	}
	if p.Base != 0 && p.Base <= 1 {
		return fail("Base", p.Base, "must exceed 1 (0 selects the default)")
	}
	if p.RNT < 0 {
		return fail("RNT", p.RNT, "must be non-negative (0 selects the default)")
	}
	if p.Rho < 0 {
		return fail("Rho", p.Rho, "must be non-negative")
	}
	if p.Metric != MetricCosine && p.Metric != MetricEuclidean {
		return fail("Metric", p.Metric, "must be MetricCosine or MetricEuclidean")
	}
	// ResolveIndexBackend is the one registry lookup, so a CLI flag, an
	// HTTP params block, a model file and a direct library call all reject
	// an unknown name with the same ErrUnknownIndexBackend before any index
	// is built.
	if _, err := ResolveIndexBackend(p.IndexBackend); err != nil {
		return fmt.Errorf("lafdbscan: invalid IndexBackend = %v: %w", p.IndexBackend, err)
	}
	if p.EfSearch < 0 {
		return fail("EfSearch", p.EfSearch, "must be non-negative (0 selects the default)")
	}
	// Below zero only -1 has a defined meaning, for Workers (all cores);
	// BatchSize and WaveSize are sizes with no negative interpretation.
	if p.Workers < WorkersAuto {
		return fail("Workers", p.Workers, "must be at least -1 (-1 = all cores)")
	}
	if p.BatchSize < 0 {
		return fail("BatchSize", p.BatchSize, "must be non-negative (0 = auto)")
	}
	if p.WaveSize < 0 {
		return fail("WaveSize", p.WaveSize, "must be non-negative (0 = auto)")
	}
	return nil
}
