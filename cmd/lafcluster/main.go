// Command lafcluster clusters a saved dataset with any method of the
// repository and reports timing, cluster statistics and (optionally)
// quality against exact DBSCAN. Around the Fit/Predict model API it also
// persists fitted models and assigns new datasets to existing clusters
// without re-clustering.
//
// Usage:
//
//	lafcluster -data test.lafd -method laf-dbscan -eps 0.55 -tau 5 -alpha 2 [-train train.lafd] [-compare]
//	lafcluster -data test.lafd -method dbscan -eps 0.5 -tau 5 -index-backend hnsw [-ef-search 128]
//	lafcluster -data train.lafd -method dbscan -eps 0.5 -tau 5 -save model.lafm
//	lafcluster -load model.lafm -predict incoming.lafd
//	lafcluster -load model.lafm -insert new.lafd -save model.lafm
//	lafcluster -load model.lafm -remove 3,17,42 -save model.lafm
//	lafcluster -data train.lafd -method dbscan -eps 0.5 -tau 5 -wal /var/lib/laf/m1
//	lafcluster -wal /var/lib/laf/m1 -insert new.lafd -snapshot
//	lafcluster -wal /var/lib/laf/m1 -predict incoming.lafd
//
// Modes:
//
//   - Fit (default): cluster -data; with -save, persist the fitted model;
//     with -predict, additionally assign a held-out dataset's points to the
//     fitted clusters.
//   - Load: -load reads a model written by -save (or downloaded from
//     lafserve's /v1/models/{id}/save) instead of clustering; -predict then
//     costs one range query per point — the whole point of keeping models.
//   - Maintain: -insert folds a dataset's points into the clustering
//     online (incremental DBSCAN: promotions, merges), -remove drops point
//     ids (demotions, splits) — both at the cost of the changed
//     neighborhoods only, with labels identical to re-clustering from
//     scratch for the traversal methods. -retrain N retrains a LAF model's
//     estimator once N mutations have accumulated. Combine with -save to
//     persist the evolved model.
//   - Durable: -wal roots the model in a journal directory. With -data or
//     -load it seeds a fresh journal (snapshot plus write-ahead log); alone
//     it recovers the journaled model — replaying the log, cutting a torn
//     tail — and every -insert/-remove is journaled before it commits,
//     so a crash between runs loses nothing that was committed. -snapshot
//     rolls the journal generation before exiting; docs/DURABILITY.md
//     covers the format and recovery semantics.
//
// When -method is laf-dbscan or laf-dbscan++ an RMI estimator is trained
// first — on -train when given, otherwise on the dataset itself — and its
// training time is reported separately (it is excluded from clustering
// time, as in the paper).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"lafdbscan"
	"lafdbscan/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lafcluster: ")
	var (
		dataPath    = flag.String("data", "", "dataset file to cluster (required unless -load)")
		trainPath   = flag.String("train", "", "optional separate training dataset for the estimator")
		method      = flag.String("method", "laf-dbscan", methodsUsage())
		eps         = flag.Float64("eps", 0.55, "cosine-distance threshold")
		tau         = flag.Int("tau", 5, "minimum neighbors for a core point")
		alpha       = flag.Float64("alpha", 1.0, "LAF error factor")
		p           = flag.Float64("p", 0.3, "sample fraction for the ++ variants")
		seed        = flag.Int64("seed", 1, "seed")
		compare     = flag.Bool("compare", false, "also run exact DBSCAN and report ARI/AMI")
		workers     = flag.Int("workers", 0, "cores for dbscan, dbscan++ and the laf methods: 0 = all cores, 1 = one core (for paper-figure timing); labels are identical at every setting")
		waveSize    = flag.Int("wave", 0, "range queries per neighbor-discovery wave (0 = auto)")
		savePath    = flag.String("save", "", "persist the (fitted or evolved) model to this file")
		loadPath    = flag.String("load", "", "load a model from this file instead of clustering")
		predictPath = flag.String("predict", "", "dataset file to assign to the model's clusters")
		gate        = flag.Bool("gate", false, "use the model's estimator to skip predicted-noise queries during -predict")
		insertPath  = flag.String("insert", "", "dataset file to fold into the model's clustering online")
		removeIDs   = flag.String("remove", "", "comma-separated point ids to drop from the model's clustering")
		retrainN    = flag.Int("retrain", 0, "retrain a LAF model's estimator after this many mutations (0 = never)")
		idxBackend  = flag.String("index-backend", "", indexBackendUsage())
		efSearch    = flag.Int("ef-search", 0, "HNSW search beam width: larger = higher recall, slower queries (0 = default 64)")
		walDir      = flag.String("wal", "", "journal directory for a durable model: -data/-load seeds it, alone recovers it")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy: always, interval or off (with -wal)")
		doSnapshot  = flag.Bool("snapshot", false, "commit a journal snapshot before exiting (with -wal)")
	)
	flag.Parse()

	if _, err := wal.ParseSyncPolicy(*walSync); err != nil {
		log.Print("-wal-sync: ", err)
		flag.Usage()
		os.Exit(2)
	}
	if *doSnapshot && *walDir == "" {
		log.Fatal("-snapshot requires -wal")
	}

	// Durable recovery mode: -wal alone reopens a journaled model where a
	// previous run left it, replaying the write-ahead log on its snapshot.
	if *walDir != "" && *dataPath == "" && *loadPath == "" {
		if *compare {
			log.Fatal("-wal recovery replaces clustering; it cannot combine with -compare")
		}
		opts := durableOptions(*walSync)
		d, rep, err := lafdbscan.OpenDurable(context.Background(), *walDir, opts)
		if err != nil {
			log.Fatalf("recovering journal %s: %v", *walDir, err)
		}
		defer closeDurable(d)
		printModel(d.Model(), *walDir)
		printRecovery(rep)
		maintain(d.Model(), d, *insertPath, *removeIDs, *retrainN)
		if *predictPath != "" {
			predict(d.Model(), *predictPath, *gate)
		}
		maybeSnapshot(d, *doSnapshot)
		if *savePath != "" {
			saveModel(d.Model(), *savePath)
		}
		return
	}

	if *loadPath != "" {
		if *dataPath != "" || *compare {
			log.Fatal("-load replaces clustering; it cannot combine with -data or -compare")
		}
		model, err := lafdbscan.LoadModelFile(*loadPath)
		if err != nil {
			log.Fatalf("loading model %s: %v", *loadPath, err)
		}
		printModel(model, *loadPath)
		var mut modelMutator = model
		if *walDir != "" {
			d := seedJournal(model, *walDir, *walSync)
			defer closeDurable(d)
			defer maybeSnapshot(d, *doSnapshot)
			mut = d
		}
		maintain(model, mut, *insertPath, *removeIDs, *retrainN)
		if *predictPath != "" {
			predict(model, *predictPath, *gate)
		}
		if *savePath != "" {
			saveModel(model, *savePath)
		}
		return
	}

	if *dataPath == "" {
		log.Fatal("-data is required")
	}
	m := lafdbscan.Method(*method)
	if !slices.Contains(lafdbscan.AllMethods(), m) {
		log.Printf("unknown method %q (want one of %v)", *method, lafdbscan.AllMethods())
		flag.Usage()
		os.Exit(2)
	}
	params := lafdbscan.Params{
		Eps: *eps, Tau: *tau, Alpha: *alpha,
		SampleFraction: *p, Rho: 1.0, Seed: *seed,
		Workers: *workers, WaveSize: *waveSize,
		IndexBackend: *idxBackend, EfSearch: *efSearch,
	}
	// One validation covers every flag-fed parameter — the same domain the
	// library enforces at its entry points and lafserve returns 400s for.
	if err := params.Validate(); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	data, err := lafdbscan.LoadDataset(*dataPath)
	if err != nil {
		log.Fatalf("loading %s: %v", *dataPath, err)
	}
	fmt.Printf("dataset: %s (%d points, %d dims)\n", data.Name, data.Len(), data.Dim())

	if m == lafdbscan.MethodLAFDBSCAN || m == lafdbscan.MethodLAFDBSCANPP {
		trainVecs := data.Vectors
		if *trainPath != "" {
			train, err := lafdbscan.LoadDataset(*trainPath)
			if err != nil {
				log.Fatalf("loading %s: %v", *trainPath, err)
			}
			trainVecs = train.Vectors
		}
		start := time.Now()
		est, err := lafdbscan.TrainRMIEstimator(trainVecs, lafdbscan.EstimatorConfig{
			TargetSize: data.Len(), Seed: *seed,
		})
		if err != nil {
			log.Fatalf("training estimator: %v", err)
		}
		fmt.Printf("estimator trained in %v (excluded from clustering time)\n",
			time.Since(start).Round(time.Millisecond))
		params.Estimator = est
	}

	// Fit retains what Cluster would discard — cores, index,
	// estimator — with labels pinned bit-identical to Cluster; clustering
	// reports read from the embedded result either way.
	model, err := lafdbscan.FitParams(context.Background(), data.Vectors, m, params)
	if err != nil {
		log.Fatalf("clustering: %v", err)
	}
	res := model.Result()
	stats := lafdbscan.Stats(res.Labels)
	fmt.Printf("method:          %s\n", res.Algorithm)
	if b := model.IndexBackend(); b != "" {
		fmt.Printf("index backend:   %s\n", b)
	}
	fmt.Printf("clustering time: %v\n", res.Elapsed.Round(time.Millisecond))
	fmt.Printf("clusters:        %d\n", res.NumClusters)
	fmt.Printf("core points:     %d\n", model.NumCores())
	fmt.Printf("noise ratio:     %.3f\n", stats.NoiseRatio)
	fmt.Printf("range queries:   %d (skipped by LAF: %d)\n", res.RangeQueries, res.SkippedQueries)
	if res.PostMerges > 0 {
		fmt.Printf("post merges:     %d\n", res.PostMerges)
	}

	if *compare && m != lafdbscan.MethodDBSCAN {
		truth, err := lafdbscan.Cluster(data.Vectors, lafdbscan.MethodDBSCAN, params)
		if err != nil {
			log.Fatalf("ground truth: %v", err)
		}
		ari, _ := lafdbscan.ARI(truth.Labels, res.Labels)
		ami, _ := lafdbscan.AMI(truth.Labels, res.Labels)
		fmt.Printf("vs DBSCAN (%v): ARI=%.4f AMI=%.4f speedup=%.2fx\n",
			truth.Elapsed.Round(time.Millisecond), ari, ami,
			truth.Elapsed.Seconds()/res.Elapsed.Seconds())
	}

	var mut modelMutator = model
	if *walDir != "" {
		d := seedJournal(model, *walDir, *walSync)
		defer closeDurable(d)
		defer maybeSnapshot(d, *doSnapshot)
		mut = d
	}
	maintain(model, mut, *insertPath, *removeIDs, *retrainN)

	if *savePath != "" {
		saveModel(model, *savePath)
	}
	if *predictPath != "" {
		predict(model, *predictPath, *gate)
	}
}

// modelMutator is the mutation surface maintenance runs against: the bare
// model, or its journal when -wal is set (so every mutation is journaled
// before it commits).
type modelMutator interface {
	Insert(ctx context.Context, vectors [][]float32) (lafdbscan.UpdateReport, error)
	Remove(ctx context.Context, ids []int) (lafdbscan.UpdateReport, error)
}

// durableOptions maps the (already validated) -wal-sync flag onto journal
// options.
func durableOptions(syncPolicy string) lafdbscan.DurableOptions {
	p, err := wal.ParseSyncPolicy(syncPolicy)
	if err != nil {
		log.Fatalf("-wal-sync: %v", err)
	}
	return lafdbscan.DurableOptions{Sync: p}
}

// seedJournal starts a fresh journal for a fitted or loaded model.
func seedJournal(model *lafdbscan.Model, dir, syncPolicy string) *lafdbscan.DurableModel {
	d, err := lafdbscan.NewDurable(model, dir, durableOptions(syncPolicy))
	if err != nil {
		log.Fatalf("seeding journal %s: %v", dir, err)
	}
	fmt.Printf("journal:         %s (seeded, sync %s)\n", dir, syncPolicy)
	return d
}

// printRecovery summarizes what OpenDurable replayed and what it had to cut.
func printRecovery(rep lafdbscan.RecoveryReport) {
	fmt.Printf("journal:         snapshot lsn %d, replayed %d records (%d inserted, %d removed) in %v\n",
		rep.SnapshotLSN, rep.Records, rep.Inserted, rep.Removed, rep.Elapsed.Round(time.Millisecond))
	if rep.Truncated {
		fmt.Printf("journal tail cut: %s (%d bytes dropped)\n", rep.Reason, rep.DroppedBytes)
	}
	if rep.SnapshotsDropped > 0 {
		fmt.Printf("snapshots dropped: %d (unloadable, recovered from an older generation)\n", rep.SnapshotsDropped)
	}
}

// maybeSnapshot commits a journal snapshot when -snapshot was given.
func maybeSnapshot(d *lafdbscan.DurableModel, on bool) {
	if !on {
		return
	}
	info, err := d.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	fmt.Printf("snapshot:        lsn %d (%d bytes, %d stale files compacted)\n",
		info.LSN, info.Bytes, info.Compacted)
}

// closeDurable syncs and closes the journal; a failure here means the last
// mutations may not be on disk, which deserves a hard exit code.
func closeDurable(d *lafdbscan.DurableModel) {
	if err := d.Close(); err != nil {
		log.Fatalf("closing journal: %v", err)
	}
}

// maintain applies the online-maintenance flags: the retrain policy first
// (so it can trigger on this run's mutations), then -insert, then -remove.
// Mutations go through mut — the journal when -wal is set — while the
// retrain policy lives on the model itself either way.
func maintain(model *lafdbscan.Model, mut modelMutator, insertPath, removeIDs string, retrainN int) {
	if retrainN > 0 {
		model.SetRetrainPolicy(lafdbscan.RetrainPolicy{
			After: retrainN,
			Train: func(ctx context.Context, points [][]float32) (lafdbscan.Estimator, error) {
				start := time.Now()
				est, err := lafdbscan.TrainRMIEstimator(points, lafdbscan.EstimatorConfig{
					TargetSize: len(points),
				})
				if err == nil {
					fmt.Printf("estimator retrained on %d points in %v\n",
						len(points), time.Since(start).Round(time.Millisecond))
				}
				return est, err
			},
		})
	}
	if insertPath != "" {
		data, err := lafdbscan.LoadDataset(insertPath)
		if err != nil {
			log.Fatalf("loading %s: %v", insertPath, err)
		}
		if data.Dim() != model.Dim() {
			log.Fatalf("insert dataset has %d dims, model has %d", data.Dim(), model.Dim())
		}
		start := time.Now()
		rep, err := mut.Insert(context.Background(), data.Vectors)
		if err != nil {
			log.Fatalf("inserting: %v", err)
		}
		printReport("inserted", data.Len(), rep, time.Since(start))
	}
	if removeIDs != "" {
		var ids []int
		for _, f := range strings.Split(removeIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				log.Fatalf("-remove: %q is not a point id", f)
			}
			ids = append(ids, id)
		}
		start := time.Now()
		rep, err := mut.Remove(context.Background(), ids)
		if err != nil {
			log.Fatalf("removing: %v", err)
		}
		printReport("removed", len(ids), rep, time.Since(start))
	}
}

// printReport summarizes one maintenance operation.
func printReport(verb string, n int, rep lafdbscan.UpdateReport, elapsed time.Duration) {
	fmt.Printf("%s:        %d points in %v (promoted %d, demoted %d)\n",
		verb, n, elapsed.Round(time.Millisecond), rep.Promoted, rep.Demoted)
	fmt.Printf("clusters now:    %d (%d cores, staleness %d", rep.Clusters, rep.Cores, rep.Staleness)
	if rep.Retrained {
		fmt.Printf(", estimator retrained")
	}
	fmt.Println(")")
}

// saveModel persists the model and reports the file size.
func saveModel(model *lafdbscan.Model, path string) {
	if err := model.SaveFile(path); err != nil {
		log.Fatalf("saving model: %v", err)
	}
	if fi, err := os.Stat(path); err == nil {
		fmt.Printf("model saved:     %s (%d bytes)\n", path, fi.Size())
	}
}

// methodsUsage renders the -method help from the canonical list, so the CLI
// never drifts from what the library dispatches.
func methodsUsage() string {
	out := "one of"
	for _, m := range lafdbscan.AllMethods() {
		out += " " + string(m)
	}
	return out
}

// indexBackendUsage renders the -index-backend help from the backend
// registry, so the CLI never drifts from what the library provides.
func indexBackendUsage() string {
	return fmt.Sprintf("range-index backend under either metric: empty = exact default, %q = HNSW, or one of %v",
		lafdbscan.IndexBackendAuto, lafdbscan.IndexBackends())
}

// printModel summarizes a loaded model.
func printModel(m *lafdbscan.Model, path string) {
	fmt.Printf("model:           %s\n", path)
	fmt.Printf("method:          %s\n", m.Method())
	fmt.Printf("training points: %d (%d dims)\n", m.Len(), m.Dim())
	fmt.Printf("clusters:        %d\n", m.NumClusters())
	fmt.Printf("core points:     %d\n", m.NumCores())
	fmt.Printf("estimator:       %v\n", m.HasEstimator())
	if b := m.IndexBackend(); b != "" {
		fmt.Printf("index backend:   %s\n", b)
	}
}

// predict assigns a dataset's points to the model's clusters and reports
// the assignment statistics — O(one range query) per point, against the
// full re-clustering a Cluster call would have cost.
func predict(model *lafdbscan.Model, path string, gate bool) {
	data, err := lafdbscan.LoadDataset(path)
	if err != nil {
		log.Fatalf("loading %s: %v", path, err)
	}
	if data.Dim() != model.Dim() {
		log.Fatalf("predict dataset has %d dims, model was fitted on %d", data.Dim(), model.Dim())
	}
	start := time.Now()
	labels, skipped, err := model.PredictWithOptions(context.Background(), data.Vectors,
		lafdbscan.PredictOptions{Gate: gate})
	if err != nil {
		log.Fatalf("predicting: %v", err)
	}
	elapsed := time.Since(start)
	stats := lafdbscan.Stats(labels)
	fmt.Printf("predicted:       %s (%d points) in %v\n", data.Name, data.Len(), elapsed.Round(time.Millisecond))
	fmt.Printf("assigned:        %d (noise %.3f)\n", data.Len()-stats.NumNoise, stats.NoiseRatio)
	if gate {
		fmt.Printf("gate skipped:    %d queries\n", skipped)
	}
}
