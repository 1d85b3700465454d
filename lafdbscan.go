package lafdbscan

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/index"
	"lafdbscan/internal/index/hnsw"
	"lafdbscan/internal/metrics"
	"lafdbscan/internal/vecmath"
)

// Result is a clustering outcome: labels (cluster ids >= 1, or Noise),
// cluster count, elapsed time, and the range-query accounting the paper's
// efficiency analysis relies on.
type Result = cluster.Result

// Noise is the label assigned to noise points in Result.Labels.
const Noise = cluster.Noise

// Estimator predicts range-query cardinalities without executing the query.
// Obtain one from TrainRMIEstimator (learned, the paper's configuration) or
// the construction helpers in this package.
type Estimator = cardest.Estimator

// Params collects the parameters shared by all clustering entry points.
// Zero values of optional fields select the paper's defaults.
type Params struct {
	// Eps is the cosine-distance threshold of the range queries.
	Eps float64
	// Tau is the minimum neighbor count (including the point itself) for a
	// point to be core.
	Tau int

	// Alpha is LAF's error factor: a point is predicted core when the
	// estimated cardinality is at least Alpha*Tau. Used by LAFDBSCAN and
	// LAFDBSCANPP only. The paper tunes it per dataset (Table 1); 1.0 is
	// the neutral setting.
	Alpha float64
	// Estimator is the cardinality estimator. Required for LAFDBSCAN and
	// LAFDBSCANPP, ignored elsewhere.
	Estimator Estimator
	// DisablePostProcessing turns off LAF's repair pass (ablation).
	DisablePostProcessing bool

	// SampleFraction is DBSCAN++'s / LAF-DBSCAN++'s p in (0, 1].
	SampleFraction float64

	// Branching and LeavesRatio configure KNN-BLOCK DBSCAN's k-means tree
	// (defaults 10 and 0.6, the paper's settings).
	Branching   int
	LeavesRatio float64

	// Base and RNT configure BLOCK-DBSCAN's cover tree (defaults 2.0
	// and 10, the paper's settings).
	Base float64
	RNT  int

	// Rho is ρ-approximate DBSCAN's approximation factor (paper: 1.0).
	Rho float64

	// Metric selects the distance function for DBSCAN and LAFDBSCAN. The
	// zero value, MetricCosine, is the paper's setting; MetricEuclidean
	// implements its future-work extension (train the estimator with
	// EstimatorConfig.Metric set accordingly).
	Metric DistanceMetric

	// Seed drives all randomized components.
	Seed int64

	// Workers selects the clustering engine for DBSCAN, DBSCANPP,
	// LAFDBSCAN and LAFDBSCANPP, which all run on the same engines. The
	// zero value runs the sequential reference implementation (the
	// paper's formulation); a positive value runs the parallel engine
	// with that many workers; WorkersAuto sizes the pool to GOMAXPROCS.
	// The parallel DBSCAN and DBSCAN++ engines produce labels identical to
	// the sequential ones; the parallel LAF engines match their sequential
	// counterparts exactly when post-processing is disabled and use the
	// complete (traversal-order-free) partial-neighbor map when it is
	// enabled. The three baselines ignore the knob.
	Workers int
	// BatchSize is the number of range queries a parallel worker claims
	// at a time; 0 selects a load-balancing default. Ignored by the
	// sequential engines.
	BatchSize int
	// WaveSize bounds the parallel engines' memory: neighbor discovery
	// runs in waves of this many range queries, and each wave's neighbor
	// lists are dropped as soon as core flags, cluster links and border
	// stubs are folded in — peak extra memory is O(WaveSize·avg|N|)
	// instead of the O(Σ|N(p)|) of buffering every list. 0 selects a
	// default (index.DefaultWaveSize); negative values are rejected.
	// Labels are identical at every setting. Ignored by the sequential
	// engines.
	WaveSize int

	// Index optionally supplies a pre-built range-query engine, letting a
	// long-running caller (the lafserve registry) build one index per
	// dataset and share it across requests instead of rebuilding per run.
	// It must index exactly the points passed to the entry point, under
	// the same metric as Params.Metric. Honored by DBSCAN, DBSCAN++ and
	// the LAF variants; KNN-BLOCK, BLOCK-DBSCAN and ρ-approximate build
	// their own specialized structures and ignore it. Labels are identical
	// with or without a shared index. When set, IndexBackend is ignored.
	Index RangeIndex

	// IndexBackend selects the range-index implementation by registry name
	// (see IndexBackends: "brute" or "hnsw", both under either metric) for
	// the methods that honor a shared index and for every model's
	// prediction index. The zero value is the exact brute-force scan —
	// labels stay bit-identical to every earlier release. IndexBackendAuto
	// is the HNSW graph (sub-linear queries, recall tunable through
	// EfSearch). Any other name is a validation error wrapping
	// ErrUnknownIndexBackend.
	IndexBackend string
	// EfSearch is the HNSW recall knob: the size of the result set the
	// graph's layer-0 best-first expansion maintains per query. 0 selects
	// the default (hnsw.DefaultEfSearch, 64); larger values raise recall
	// and query cost. Ignored by every other backend.
	EfSearch int
}

// RangeIndex answers range queries over an indexed point set; see
// Params.Index. The brute-force implementation behind the default engines
// is safe for concurrent use across clustering runs.
type RangeIndex = index.RangeSearcher

// NewBruteForceIndex builds the default parallel brute-force range-query
// engine over points under the given metric — the index the clustering
// entry points construct per run when Params.Index is nil and IndexBackend
// is empty. It is equivalent to Params{}.NewIndex, kept as the stable
// pre-registry constructor.
func NewBruteForceIndex(points [][]float32, m DistanceMetric) RangeIndex {
	return index.NewBruteForce(points, m.Func())
}

// IndexBackendAuto selects the approximate default for
// Params.IndexBackend: the HNSW graph, which answers under both metrics.
const IndexBackendAuto = "auto"

// DefaultEfSearch is the HNSW search beam width selected when
// Params.EfSearch is zero — the recall knob's untuned setting, and the one
// the recall gate (cmd/lafrecall) holds to its floor.
const DefaultEfSearch = hnsw.DefaultEfSearch

// IndexBackends lists the registered index backend names, "brute" and
// "hnsw"; each is a valid Params.IndexBackend value.
func IndexBackends() []string { return index.Backends() }

// ErrUnknownIndexBackend reports an IndexBackend knob that names no
// registered backend. ResolveIndexBackend, Params.Validate, LoadModel and
// the lafserve endpoints wrap it, so errors.Is recognizes the rejection
// wherever it surfaces — including a model file saved under a backend
// ("covertree", "kmeanstree", "grid") that has since been removed.
var ErrUnknownIndexBackend = errors.New("lafdbscan: unknown index backend")

// NewIndex builds the range index p describes over points under metric m:
// p.IndexBackend is resolved by ResolveIndexBackend, then constructed with
// p's Seed and EfSearch. It returns the index and the resolved backend
// name.
func (p Params) NewIndex(points [][]float32, m DistanceMetric) (RangeIndex, string, error) {
	name, err := ResolveIndexBackend(p.IndexBackend)
	if err != nil {
		return nil, "", err
	}
	idx, err := index.NewBackend(name, points, index.BackendOptions{
		Metric: m, EfSearch: p.EfSearch, Seed: p.Seed,
	})
	if err != nil {
		return nil, "", err
	}
	return idx, name, nil
}

// ResolveIndexBackend maps an IndexBackend knob onto a registered backend
// name without building anything — serving layers use it to key
// shared-index caches by the resolved name. "" is the exact brute-force
// scan, IndexBackendAuto the HNSW graph, and any other value must be a
// registered name; both backends answer under either metric. An unknown
// name fails with ErrUnknownIndexBackend.
func ResolveIndexBackend(backend string) (string, error) {
	switch backend {
	case "":
		return index.BackendBrute, nil
	case IndexBackendAuto:
		return index.BackendHNSW, nil
	}
	if !slices.Contains(index.Backends(), backend) {
		return "", fmt.Errorf("%w %q (want empty for the exact default, %q, or one of %v)",
			ErrUnknownIndexBackend, backend, IndexBackendAuto, index.Backends())
	}
	return backend, nil
}

// materializeIndex builds Params.IndexBackend into Params.Index under
// metric m for the entry points that honor a shared index. An explicit
// Index wins.
func materializeIndex(p *Params, points [][]float32, m DistanceMetric) error {
	if p.Index != nil {
		return nil
	}
	idx, _, err := p.NewIndex(points, m)
	if err != nil {
		return err
	}
	p.Index = idx
	return nil
}

// WorkersAuto sizes the parallel engine's worker pool to GOMAXPROCS.
const WorkersAuto = -1

// DistanceMetric identifies a distance function.
type DistanceMetric = vecmath.Metric

// The supported metrics.
const (
	// MetricCosine is the angular distance 1 - cos, bounded in [0, 2].
	MetricCosine = vecmath.Cosine
	// MetricEuclidean is the L2 distance. On unit vectors it relates to
	// cosine distance by Equation 1 of the paper: d_euc = sqrt(2 * d_cos).
	MetricEuclidean = vecmath.Euclidean
)

// CosineToEuclidean converts a cosine-distance threshold to the equivalent
// Euclidean threshold for unit vectors (Equation 1 of the paper).
func CosineToEuclidean(dcos float64) float64 { return vecmath.CosineToEuclidean(dcos) }

// EuclideanToCosine is the inverse of CosineToEuclidean for unit vectors.
func EuclideanToCosine(deuc float64) float64 { return vecmath.EuclideanToCosine(deuc) }

// DBSCAN runs exact DBSCAN; its labeling is the ground truth the paper
// scores every approximate method against. It runs on the LAF engines with
// the open gate (every point passes, nothing is skipped or repaired). With
// Params.Workers set it runs the parallel engine, whose labels are
// identical to the sequential one's.
func DBSCAN(points [][]float32, p Params) (*Result, error) {
	return DBSCANContext(context.Background(), points, p)
}

// DBSCANContext is DBSCAN under a cancellation context: the parallel engine
// checks it at each wave barrier (aborting within one wave at zero hot-path
// cost), the sequential engine every few dozen range queries. On
// cancellation it returns ctx.Err() and no result.
func DBSCANContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := materializeIndex(&p, points, p.Metric); err != nil {
		return nil, err
	}
	return (&core.LAFDBSCAN{Points: points, Index: p.Index, Config: openGateConfig(p)}).RunContext(ctx)
}

// DBSCANPP runs DBSCAN++ with sample fraction p.SampleFraction.
func DBSCANPP(points [][]float32, p Params) (*Result, error) {
	return DBSCANPPContext(context.Background(), points, p)
}

// DBSCANPPContext is DBSCANPP under a cancellation context. Like DBSCAN it
// runs on the LAF engines with the open gate, so Params.Workers selects the
// parallel engine, whose labels are identical to the sequential one's.
func DBSCANPPContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The ++ driver is hardwired to cosine distance, so the backend is
	// materialized under that metric regardless of Params.Metric.
	if err := materializeIndex(&p, points, MetricCosine); err != nil {
		return nil, err
	}
	return (&core.LAFDBSCANPP{Points: points, P: p.SampleFraction, Index: p.Index, Config: openGateConfig(p)}).RunContext(ctx)
}

// LAFDBSCAN runs the paper's LAF-enhanced DBSCAN (Algorithm 1).
func LAFDBSCAN(points [][]float32, p Params) (*Result, error) {
	return LAFDBSCANContext(context.Background(), points, p)
}

// LAFDBSCANContext is LAFDBSCAN under a cancellation context.
func LAFDBSCANContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := materializeIndex(&p, points, p.Metric); err != nil {
		return nil, err
	}
	return (&core.LAFDBSCAN{Points: points, Index: p.Index, Config: lafConfig(p)}).RunContext(ctx)
}

// LAFDBSCANPP runs LAF-enhanced DBSCAN++ (the paper fixes its Alpha to 1.0;
// pass Alpha explicitly to override).
func LAFDBSCANPP(points [][]float32, p Params) (*Result, error) {
	return LAFDBSCANPPContext(context.Background(), points, p)
}

// LAFDBSCANPPContext is LAFDBSCANPP under a cancellation context.
func LAFDBSCANPPContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := materializeIndex(&p, points, MetricCosine); err != nil {
		return nil, err
	}
	return (&core.LAFDBSCANPP{Points: points, P: p.SampleFraction, Index: p.Index, Config: lafConfig(p)}).RunContext(ctx)
}

// lafConfig maps Params onto the LAF engines' Config; a zero Alpha selects
// the neutral 1.0.
func lafConfig(p Params) core.Config {
	if p.Alpha == 0 {
		p.Alpha = 1
	}
	return core.Config{
		Eps: p.Eps, Tau: p.Tau, Alpha: p.Alpha,
		Estimator: p.Estimator, Seed: p.Seed,
		DisablePostProcessing: p.DisablePostProcessing,
		Workers:               p.Workers, BatchSize: p.BatchSize,
		WaveSize: p.WaveSize,
	}
}

// openGateConfig is lafConfig with the open gate in place of the estimator:
// the LAF engines then run the original DBSCAN and DBSCAN++.
func openGateConfig(p Params) core.Config {
	cfg := lafConfig(p)
	cfg.Estimator, cfg.Alpha, cfg.DisablePostProcessing = core.OpenGate, 1, true
	return cfg
}

// KNNBlockDBSCAN runs the KNN-BLOCK DBSCAN baseline.
func KNNBlockDBSCAN(points [][]float32, p Params) (*Result, error) {
	return KNNBlockDBSCANContext(context.Background(), points, p)
}

// KNNBlockDBSCANContext is KNNBlockDBSCAN under a cancellation context.
func KNNBlockDBSCANContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return (&cluster.KNNBlock{
		Points: points, Eps: p.Eps, Tau: p.Tau,
		Branching: p.Branching, LeavesRatio: p.LeavesRatio, Seed: p.Seed,
	}).RunContext(ctx)
}

// BlockDBSCAN runs the BLOCK-DBSCAN baseline.
func BlockDBSCAN(points [][]float32, p Params) (*Result, error) {
	return BlockDBSCANContext(context.Background(), points, p)
}

// BlockDBSCANContext is BlockDBSCAN under a cancellation context.
func BlockDBSCANContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return (&cluster.BlockDBSCAN{
		Points: points, Eps: p.Eps, Tau: p.Tau,
		Base: p.Base, RNT: p.RNT, Seed: p.Seed,
	}).RunContext(ctx)
}

// RhoApproxDBSCAN runs the ρ-approximate DBSCAN baseline.
func RhoApproxDBSCAN(points [][]float32, p Params) (*Result, error) {
	return RhoApproxDBSCANContext(context.Background(), points, p)
}

// RhoApproxDBSCANContext is RhoApproxDBSCAN under a cancellation context.
func RhoApproxDBSCANContext(ctx context.Context, points [][]float32, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return (&cluster.RhoApprox{
		Points: points, Eps: p.Eps, Tau: p.Tau, Rho: p.Rho,
	}).RunContext(ctx)
}

// PredictedCoreRatio returns Rc, the fraction of points the estimator
// predicts as core. The paper sets DBSCAN++'s sample fraction to
// delta + Rc with delta in 0.1-0.3.
func PredictedCoreRatio(points [][]float32, est Estimator, eps float64, tau int, alpha float64) float64 {
	return core.PredictedCoreRatio(points, est, eps, tau, alpha)
}

// Method names a clustering algorithm for the generic Cluster entry point
// and the CLI tools.
type Method string

// The supported methods.
const (
	MethodDBSCAN      Method = "dbscan"
	MethodDBSCANPP    Method = "dbscan++"
	MethodLAFDBSCAN   Method = "laf-dbscan"
	MethodLAFDBSCANPP Method = "laf-dbscan++"
	MethodKNNBlock    Method = "knn-block"
	MethodBlockDBSCAN Method = "block-dbscan"
	MethodRhoApprox   Method = "rho-approx"
)

// Methods lists every supported method in the paper's reporting order.
// ρ-approximate DBSCAN is deliberately absent — the paper reports it
// separately (Table 4) after showing it degenerates in high dimensions —
// but it is dispatchable; use AllMethods when validating user input.
func Methods() []Method {
	return []Method{
		MethodDBSCAN, MethodKNNBlock, MethodBlockDBSCAN,
		MethodDBSCANPP, MethodLAFDBSCAN, MethodLAFDBSCANPP,
	}
}

// AllMethods lists every dispatchable method: the paper's reporting order of
// Methods followed by ρ-approximate DBSCAN. The CLI tools and the lafserve
// job engine validate method names against it, so everything Cluster and Fit
// can dispatch is accepted everywhere.
func AllMethods() []Method {
	return append(Methods(), MethodRhoApprox)
}

// Cluster dispatches to the named method.
func Cluster(points [][]float32, m Method, p Params) (*Result, error) {
	return ClusterContext(context.Background(), points, m, p)
}

// ClusterContext dispatches to the named method under a cancellation
// context. The parallel engines abort within one neighbor-discovery wave of
// a cancellation, the sequential engines within a few dozen range queries;
// on cancellation the error is ctx.Err() and no result is returned.
func ClusterContext(ctx context.Context, points [][]float32, m Method, p Params) (*Result, error) {
	switch m {
	case MethodDBSCAN:
		return DBSCANContext(ctx, points, p)
	case MethodDBSCANPP:
		return DBSCANPPContext(ctx, points, p)
	case MethodLAFDBSCAN:
		return LAFDBSCANContext(ctx, points, p)
	case MethodLAFDBSCANPP:
		return LAFDBSCANPPContext(ctx, points, p)
	case MethodKNNBlock:
		return KNNBlockDBSCANContext(ctx, points, p)
	case MethodBlockDBSCAN:
		return BlockDBSCANContext(ctx, points, p)
	case MethodRhoApprox:
		return RhoApproxDBSCANContext(ctx, points, p)
	default:
		return nil, fmt.Errorf("lafdbscan: unknown method %q", m)
	}
}

// ARI returns the Adjusted Rand Index between two labelings.
func ARI(truth, pred []int) (float64, error) { return metrics.ARI(truth, pred) }

// AMI returns the Adjusted Mutual Information score between two labelings.
func AMI(truth, pred []int) (float64, error) { return metrics.AMI(truth, pred) }

// ClusteringStats summarizes a labeling (noise ratio, cluster count/sizes).
type ClusteringStats = metrics.ClusteringStats

// Stats computes the summary of a labeling.
func Stats(labels []int) ClusteringStats { return metrics.Stats(labels) }

// MissedClusterStats reports the paper's Table 6 fully-missed-cluster
// analysis.
type MissedClusterStats = metrics.MissedClusterStats

// MissedClusters compares a predicted labeling against ground truth.
func MissedClusters(truth, pred []int) (MissedClusterStats, error) {
	return metrics.MissedClusters(truth, pred)
}
