// Command lafrecall measures HNSW range-query recall against the exact
// scan across a sweep of EfSearch values — the quality gate behind the
// approximate index backend. For each EfSearch it builds one HNSW index
// over a fixed clustered mixture, runs every point as a range query, and
// reports the fraction of true eps-neighbors found, writing one
// RECALL_ef<N>.json per setting for CI artifacts.
//
// Usage:
//
//	lafrecall [-n 20000] [-dim 24] [-eps 0.3] [-ef 16,64,256] [-min-recall 0.95] [-soft] [-out .]
//
// The gate applies to the default knob only (EfSearch 0, the value library
// users get without tuning): if its recall lands under -min-recall the
// command exits non-zero, or prints a warning in -soft mode (shared CI
// runners never make recall noisy — soft mode exists so a nightly red does
// not block unrelated work while the regression is investigated).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
)

// report is the JSON shape of one sweep point.
type report struct {
	EfSearch  int     `json:"ef_search"` // 0 = library default
	Default   bool    `json:"default"`
	N         int     `json:"n"`
	Dim       int     `json:"dim"`
	Eps       float64 `json:"eps"`
	Queries   int     `json:"queries"`
	TruePairs int     `json:"true_pairs"`
	Recall    float64 `json:"recall"`
	BuildMS   int64   `json:"build_ms"`
	QueryMS   int64   `json:"query_ms"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lafrecall: ")
	var (
		n         = flag.Int("n", 20000, "dataset size")
		dim       = flag.Int("dim", 24, "dataset dimensionality")
		eps       = flag.Float64("eps", 0.3, "query radius (cosine distance)")
		efList    = flag.String("ef", "16,64,256", "comma-separated EfSearch sweep (0 = library default)")
		minRecall = flag.Float64("min-recall", 0.95, "recall floor gated at the default EfSearch")
		soft      = flag.Bool("soft", false, "report a floor violation without failing")
		outDir    = flag.String("out", ".", "directory for RECALL_ef<N>.json reports")
		seed      = flag.Int64("seed", 41, "dataset and index seed")
	)
	flag.Parse()

	var efs []int
	for _, f := range strings.Split(*efList, ",") {
		ef, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || ef < 0 {
			log.Fatalf("-ef: %q is not a non-negative EfSearch", f)
		}
		efs = append(efs, ef)
	}

	// Cluster count scales with n so neighborhoods stay DBSCAN-sized (a
	// few dozen points) at every -n.
	clusters := *n / 500
	if clusters < 2 {
		clusters = 2
	}
	d := lafdbscan.GenerateMixture("recall-sweep", lafdbscan.MixtureConfig{
		N: *n, Dim: *dim, Clusters: clusters,
		MinSpread: 0.08, MaxSpread: 0.15, NoiseFrac: 0.1, Seed: *seed,
	})
	exact, _, err := lafdbscan.Params{}.NewIndex(d.Vectors, lafdbscan.MetricCosine)
	if err != nil {
		log.Fatal(err)
	}

	// The exact neighborhoods are the shared ground truth of the sweep,
	// scanned on every core through the wave driver as a self-join of the
	// points, each pair scored once; its result lists are recycled, so
	// each is copied.
	truth := make([][]int, len(d.Vectors))
	if err := index.BatchSelfSearchFunc(context.Background(), exact, d.Vectors, nil, *eps, 0, 0, 0,
		func(i int, ids []int) { truth[i] = slices.Clone(ids) }); err != nil {
		log.Fatal(err)
	}
	truePairs := 0
	for _, ids := range truth {
		truePairs += len(ids)
	}
	if truePairs == 0 {
		log.Fatalf("no true neighbor pairs at eps %v — the sweep would gate nothing", *eps)
	}

	// The default knob must be part of the sweep: it is the gated setting.
	hasDefault := false
	for _, ef := range efs {
		if ef == 0 || ef == lafdbscan.DefaultEfSearch {
			hasDefault = true
		}
	}
	if !hasDefault {
		efs = append(efs, 0)
	}

	failed := false
	for _, ef := range efs {
		p := lafdbscan.Params{Eps: *eps, Tau: 5, Seed: *seed, IndexBackend: "hnsw", EfSearch: ef}
		buildStart := time.Now()
		idx, _, err := p.NewIndex(d.Vectors, lafdbscan.MetricCosine)
		if err != nil {
			log.Fatalf("building hnsw at ef=%d: %v", ef, err)
		}
		buildMS := time.Since(buildStart).Milliseconds()

		queryStart := time.Now()
		found := 0
		for i, q := range d.Vectors {
			if len(truth[i]) == 0 {
				continue
			}
			truthSet := make(map[int]bool, len(truth[i]))
			for _, id := range truth[i] {
				truthSet[id] = true
			}
			for _, id := range idx.RangeSearch(q, *eps) {
				if truthSet[id] {
					found++
				}
			}
		}
		rep := report{
			EfSearch: ef, Default: ef == 0 || ef == lafdbscan.DefaultEfSearch,
			N: *n, Dim: *dim, Eps: *eps,
			Queries: len(d.Vectors), TruePairs: truePairs,
			Recall:  float64(found) / float64(truePairs),
			BuildMS: buildMS, QueryMS: time.Since(queryStart).Milliseconds(),
		}
		name := fmt.Sprintf("RECALL_ef%d.json", ef)
		if ef == 0 {
			name = "RECALL_efdefault.json"
		}
		path := filepath.Join(*outDir, name)
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ef=%-4d recall=%.4f (build %dms, %d queries in %dms) -> %s\n",
			ef, rep.Recall, rep.BuildMS, rep.Queries, rep.QueryMS, path)

		if rep.Default && rep.Recall < *minRecall {
			failed = true
			fmt.Printf("lafrecall: recall %.4f at the default EfSearch is under the %.2f floor\n",
				rep.Recall, *minRecall)
		}
	}
	if failed && !*soft {
		os.Exit(1)
	}
	if failed {
		fmt.Println("lafrecall: floor violated (soft mode, not failing)")
	}
}
