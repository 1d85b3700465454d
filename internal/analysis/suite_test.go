package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The four golden-fixture tests: every expected diagnostic (and every
// false-positive shape that must stay silent) lives in
// testdata/<analyzer>/fixture.go.

func TestMapIterFixture(t *testing.T)   { runFixture(t, MapIter, "mapiter") }
func TestLockCheckFixture(t *testing.T) { runFixture(t, LockCheck, "lockcheck") }
func TestCtxFlowFixture(t *testing.T)   { runFixture(t, CtxFlow, "ctxflow") }
func TestHotAllocFixture(t *testing.T)  { runFixture(t, HotAlloc, "hotalloc") }

// clusterSources returns the real internal/cluster non-test files — the
// directive-bearing package the deletion tests operate on.
func clusterSources(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "cluster", "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("globbing internal/cluster: %v (%d files)", err, len(matches))
	}
	var out []string
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			out = append(out, m)
		}
	}
	return out
}

// TestClusterDirectivesAreLoadBearing proves the acceptance criterion
// directly on the real code: internal/cluster is clean as written, and
// deleting its //lafvet:allow hotalloc directive (Absorb's stub copy)
// makes the suite fail. The package ranges over no map (the partial-
// neighbor map is dense rows read by id), so it carries no
// //lafvet:orderfree directive; TestMapIterFixture covers that one.
func TestClusterDirectivesAreLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks a whole package closure; skipped in -short")
	}
	srcs := clusterSources(t)

	if diags := stripAndRun(t, DefaultSuite(), srcs, nil); len(diags) != 0 {
		t.Fatalf("internal/cluster should be clean as written, got:\n%s", fmtDiags(diags))
	}

	hotalloc := stripAndRun(t, Suite{HotAlloc}, srcs, func(line string) bool {
		return strings.Contains(line, "//lafvet:allow hotalloc")
	})
	if len(hotalloc) == 0 {
		t.Error("deleting the //lafvet:allow hotalloc directive did not make hotalloc fail")
	}
}

// hotpathRoster is the set of functions this repository REQUIRES to stay
// registered as hot paths: the wave callback chain, the vecmath kernels
// the clustering loops call per point pair, the dense-layer kernels the
// estimator gate and its training run per sample (and the vecmath loops
// under them, Adam's step included), the telemetry write path
// every instrumented request touches, and the span-record path every
// sampled request finishes through. Deleting one of these
// //lafvet:hotpath directives fails this test, so the annotations cannot
// silently rot.
var hotpathRoster = map[string][]string{
	"../vecmath/vector.go":          {"Dot", "dotGeneric", "Norm", "SquaredNorm", "Normalize", "AXPY", "Scale"},
	"../vecmath/distance.go":        {"CosineDistance", "CosineDistanceUnit", "EuclideanDistance", "SquaredEuclidean"},
	"../vecmath/scan.go":            {"AppendCosineUnitRange", "AppendCosineUnitRange4", "CosineUnitLess", "unitLess", "dot32", "dot32x4", "dot32Generic"},
	"../index/index.go":             {"scanTile"},
	"../index/wave.go":              {"carryForward", "carryTo", "mergeCarried"},
	"../cluster/atomicunionfind.go": {"Find", "Union", "Same"},
	"../cluster/wavemerge.go":       {"Absorb"},
	"../telemetry/metrics.go":       {"Inc", "Add", "Set", "Dec", "Observe"},
	"../index/hnsw/hnsw.go":         {"searchLayer", "selectNeighbors", "link"},
	"../trace/trace.go":             {"Finish", "record"},
	"../nn/network.go":              {"forward", "accumulate"},
	"../vecmath/train.go": {"Affine16", "affine16Generic", "AddScaled4", "addScaled4Generic",
		"AddScaled", "addScaledGeneric", "AdamStep", "adamStepGeneric"},
}

func TestHotpathRoster(t *testing.T) {
	for file, funcs := range hotpathRoster {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		src := string(data)
		for _, fn := range funcs {
			// The directive must be the line directly above the declaration
			// (the tail of its doc comment).
			re := regexp.MustCompile(`(?m)^//lafvet:hotpath\nfunc (\([^)]*\) )?` + fn + `\(`)
			if !re.MatchString(src) {
				t.Errorf("%s: function %s has lost its //lafvet:hotpath directive", file, fn)
			}
		}
	}
}

// TestModuleIsClean runs the full default suite over the whole module —
// the same gate CI's lafvet step applies. Re-introducing any fixed
// violation (say, unsorted map iteration feeding the serve registry's JSON
// listing) fails here too, not just in CI.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module closure; skipped in -short")
	}
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if diags := DefaultSuite().Run(pkgs); len(diags) != 0 {
		t.Fatalf("lafvet suite is not clean over the module:\n%s", fmtDiags(diags))
	}
}
