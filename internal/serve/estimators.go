package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan"
	"lafdbscan/internal/trace"
)

// EstimatorCache trains each (dataset, EstimatorConfig) RMI estimator
// exactly once and hands the shared instance to every subsequent request —
// the serving-layer analogue of the paper's "training time is excluded
// from clustering time; a trained estimator is reused across runs".
//
// Training is single-flight: concurrent requests for the same key block on
// the one training in progress instead of training redundantly, so eight
// LAF jobs submitted together against a cold cache cost one training and
// seven hits. Failed trainings are not cached — the next request retries.
type EstimatorCache struct {
	mu      sync.Mutex
	entries map[string]*estEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type estEntry struct {
	ready chan struct{} // closed when training finished (est or err set)
	est   lafdbscan.Estimator
	err   error
	// trainTime is the wall-clock cost the cache saved every caller after
	// the first; /stats reports it so operators can see the amortization.
	trainTime time.Duration
}

// EstimatorCacheStats is the cache's /stats view.
type EstimatorCacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// NewEstimatorCache returns an empty cache.
func NewEstimatorCache() *EstimatorCache {
	return &EstimatorCache{entries: make(map[string]*estEntry)}
}

// EstimatorKey is the cache key of an EstimatorConfig applied to a named
// dataset: every config field that influences training is folded in, so
// two requests share an estimator exactly when TrainRMIEstimator would
// produce the same model for both (training is deterministic per config —
// all randomness flows from cfg.Seed).
func EstimatorKey(datasetName string, cfg lafdbscan.EstimatorConfig) string {
	return fmt.Sprintf("%s|radii=%v|mq=%d|ts=%d|paper=%t|hidden=%v|ep=%d|bs=%d|lr=%g|metric=%d|seed=%d",
		datasetName, cfg.Radii, cfg.MaxQueries, cfg.TargetSize, cfg.Paper,
		cfg.Hidden, cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Metric, cfg.Seed)
}

// estimatorInputs resolves what spec trains on for the named dataset — the
// training set's name and vectors (spec.TrainDataset, or the dataset
// itself) — and defaults the config's TargetSize to the dataset's size.
func estimatorInputs(reg *Registry, dataset string, spec EstimatorSpec) (string, [][]float32, lafdbscan.EstimatorConfig, error) {
	cfg := spec.Config
	ds, err := reg.Get(dataset)
	if err != nil {
		return "", nil, cfg, err
	}
	if cfg.TargetSize == 0 {
		cfg.TargetSize = ds.Len()
	}
	if spec.TrainDataset == "" {
		return dataset, ds.Vectors, cfg, nil
	}
	train, err := reg.Get(spec.TrainDataset)
	if err != nil {
		return "", nil, cfg, err
	}
	return spec.TrainDataset, train.Vectors, cfg, nil
}

// Get returns the estimator for cfg trained on the named dataset's vectors,
// training it on the first request. cached reports whether a previous (or
// concurrent) request already paid for training; trainTime is the training
// cost of the entry (what every cached caller saved).
//
// Training runs on its own goroutine and every caller — including the one
// that triggered it — waits under ctx, so a canceled job releases its
// worker slot immediately even while the model is still fitting; the
// training itself is never abandoned and lands in the cache for the next
// request.
//
// A traced request gets an "estimator.get" child span annotated hit or
// miss — in a slow trace it separates "waited for training" from "the
// clustering itself was slow" at a glance.
func (c *EstimatorCache) Get(ctx context.Context, datasetName string, train [][]float32, cfg lafdbscan.EstimatorConfig) (est lafdbscan.Estimator, cached bool, trainTime time.Duration, err error) {
	ctx, span := trace.Start(ctx, "estimator.get")
	est, cached, trainTime, err = c.get(ctx, datasetName, train, cfg)
	if span != nil {
		outcome := "miss"
		if cached {
			outcome = "hit"
		}
		span.Annotate(trace.Str("dataset", datasetName), trace.Str("cache", outcome))
		if err != nil {
			span.Annotate(trace.Str("error", err.Error()))
		}
		span.Finish()
	}
	return est, cached, trainTime, err
}

// get is Get without the span — the single-flight cache logic.
func (c *EstimatorCache) get(ctx context.Context, datasetName string, train [][]float32, cfg lafdbscan.EstimatorConfig) (est lafdbscan.Estimator, cached bool, trainTime time.Duration, err error) {
	key := EstimatorKey(datasetName, cfg)

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &estEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.misses.Add(1)
		go func() {
			start := time.Now()
			e.est, e.err = lafdbscan.TrainRMIEstimator(train, cfg)
			e.trainTime = time.Since(start)
			if e.err != nil {
				// Drop the failed entry so a later request can retry
				// (e.g. after an invalid config is corrected).
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
			}
			close(e.ready)
		}()
	}
	c.mu.Unlock()

	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, 0, ctx.Err()
	}
	if e.err != nil {
		return nil, false, 0, e.err
	}
	if !ok {
		return e.est, false, e.trainTime, nil
	}
	c.hits.Add(1)
	return e.est, true, e.trainTime, nil
}

// Stats returns the cache counters.
func (c *EstimatorCache) Stats() EstimatorCacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return EstimatorCacheStats{
		Entries: entries,
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
	}
}
