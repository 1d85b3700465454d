package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one load run, fully specified — the report embeds it so a
// stored JSON file documents how it was produced.
type config struct {
	URL         string        `json:"url"`
	Duration    time.Duration `json:"-"`
	DurationS   float64       `json:"duration_s"`
	Concurrency int           `json:"concurrency"`
	Rate        float64       `json:"rate"`
	Mix         string        `json:"mix"`
	Points      int           `json:"points"`
	Kind        string        `json:"kind"`
	Eps         float64       `json:"eps"`
	Tau         int           `json:"tau"`
	Seed        int64         `json:"seed"`
	Timeout     time.Duration `json:"-"`
}

func (c *config) validate() error {
	if c.Concurrency < 1 {
		return errors.New("concurrency must be >= 1")
	}
	if c.Duration <= 0 {
		return errors.New("duration must be positive")
	}
	if c.Points < 50 {
		return errors.New("points must be >= 50 (the fit needs a dataset)")
	}
	if c.Rate < 0 {
		return errors.New("rate must be >= 0")
	}
	if _, err := parseMix(c.Mix); err != nil {
		return err
	}
	c.DurationS = c.Duration.Seconds()
	return nil
}

// Operation classes of the mixed workload.
const (
	opPredict = "predict"
	opInsert  = "insert"
	opFit     = "fit"
)

// parseMix turns "predict=90,insert=8,fit=2" into cumulative weights for
// sampling. Unknown names and non-positive totals are rejected.
func parseMix(s string) ([]struct {
	op  string
	cum int
}, error) {
	known := map[string]bool{opPredict: true, opInsert: true, opFit: true}
	var out []struct {
		op  string
		cum int
	}
	total := 0
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || !known[name] {
			return nil, fmt.Errorf("mix: want predict=N,insert=N,fit=N pairs, got %q", part)
		}
		var weight int
		if _, err := fmt.Sscanf(w, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("mix: bad weight in %q", part)
		}
		total += weight
		out = append(out, struct {
			op  string
			cum int
		}{name, total})
	}
	if total <= 0 {
		return nil, errors.New("mix: weights sum to zero")
	}
	return out, nil
}

// sample is one completed request: class, latency, and how it resolved.
// rejected covers the backpressure statuses (429 full job queue, which
// fits share with jobs and updates; 409 full model store) — deliberate
// server behavior, not failures.
// trace is the server's X-Laf-Trace header when the request was sampled —
// the link from a latency outlier in the report to its spans at
// GET /v1/traces?trace=<id>.
type sample struct {
	op       string
	ms       float64
	err      bool
	rejected bool
	trace    string
}

// runner holds everything the workers share: pre-marshaled request bodies
// (so worker CPU goes into driving the server, not into JSON encoding),
// the fitted model's id, and the sampling state.
type runner struct {
	cfg    config
	client *http.Client
	mix    []struct {
		op  string
		cum int
	}

	modelID       string
	dataset       string
	fitDataset    string
	predictBodies [][]byte
	insertBodies  [][]byte
	fitBody       []byte
}

// run performs setup (register datasets, fit the model), drives the
// workload for cfg.Duration, tears down, and aggregates the report.
func run(ctx context.Context, cfg config) (*Report, error) {
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		mix:    mix,
	}
	dims, err := r.setup(ctx)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.prepareBodies(dims)

	samples, dropped, elapsed := r.drive(ctx)
	return buildReport(cfg, samples, dropped, elapsed), nil
}

// setup registers the workload dataset and a small fit-cycle dataset,
// then fits the model every predict and insert will target. Names carry
// a nanosecond stamp so repeated runs against a long-lived server never
// collide.
func (r *runner) setup(ctx context.Context) (dims int, err error) {
	stamp := time.Now().UnixNano()
	r.dataset = fmt.Sprintf("lafload-%d", stamp)
	r.fitDataset = fmt.Sprintf("lafload-fit-%d", stamp)

	info, err := r.registerDataset(ctx, r.dataset, r.cfg.Points)
	if err != nil {
		return 0, err
	}
	fitN := r.cfg.Points
	if fitN > 200 {
		fitN = 200 // the fit op measures fit latency, not dataset scaling
	}
	if _, err := r.registerDataset(ctx, r.fitDataset, fitN); err != nil {
		return 0, err
	}

	r.fitBody, _ = json.Marshal(map[string]any{
		"dataset": r.fitDataset, "method": "dbscan",
		"params": map[string]any{"eps": r.cfg.Eps, "tau": r.cfg.Tau},
	})
	body, _ := json.Marshal(map[string]any{
		"dataset": r.dataset, "method": "dbscan",
		"params": map[string]any{"eps": r.cfg.Eps, "tau": r.cfg.Tau},
	})
	var fitResp struct {
		Model struct {
			ID string `json:"id"`
		} `json:"model"`
	}
	code, _, err := r.do(ctx, http.MethodPost, "/v1/models", body, &fitResp)
	if err != nil {
		return 0, err
	}
	if code != http.StatusCreated || fitResp.Model.ID == "" {
		return 0, fmt.Errorf("fitting workload model: status %d", code)
	}
	r.modelID = fitResp.Model.ID
	return info.Dims, nil
}

func (r *runner) registerDataset(ctx context.Context, name string, n int) (struct {
	Dims int `json:"dims"`
}, error) {
	var info struct {
		Dims int `json:"dims"`
	}
	body, _ := json.Marshal(map[string]any{
		"name": name,
		"synthetic": map[string]any{
			"kind": r.cfg.Kind, "n": n, "seed": r.cfg.Seed,
		},
	})
	code, _, err := r.do(ctx, http.MethodPost, "/v1/datasets", body, &info)
	if err != nil {
		return info, err
	}
	if code != http.StatusCreated {
		return info, fmt.Errorf("registering %s: status %d", name, code)
	}
	return info, nil
}

// prepareBodies pre-marshals a rotation of predict and insert payloads
// with deterministic random vectors of the server's dimensionality.
func (r *runner) prepareBodies(dims int) {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	vecs := func(n int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			v := make([]float32, dims)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			out[i] = v
		}
		return out
	}
	const rotation = 16
	for i := 0; i < rotation; i++ {
		pb, _ := json.Marshal(map[string]any{"vectors": vecs(8)})
		r.predictBodies = append(r.predictBodies, pb)
		ib, _ := json.Marshal(map[string]any{"vectors": vecs(4)})
		r.insertBodies = append(r.insertBodies, ib)
	}
}

// drive runs the workers for cfg.Duration and collects their samples.
// Closed loop: each worker issues back-to-back requests. Open loop: a
// scheduler emits arrival timestamps at cfg.Rate; workers consume them
// and each sample's latency starts at its scheduled arrival, so queueing
// behind a slow server is measured instead of omitted. Arrivals that
// find the queue full (every worker busy, backlog at capacity) are
// counted as dropped rather than silently stretching the schedule.
func (r *runner) drive(ctx context.Context) (samples []sample, dropped int64, elapsed time.Duration) {
	deadline := time.Now().Add(r.cfg.Duration)
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	// droppedN is atomic: the scheduler goroutine below keeps writing it
	// until it observes dctx done, which can be after wg.Wait returns —
	// workers exiting through the deadline path never see arrivals close.
	var droppedN atomic.Int64
	var arrivals chan time.Time
	if r.cfg.Rate > 0 {
		arrivals = make(chan time.Time, 4*r.cfg.Concurrency)
		go func() {
			defer close(arrivals)
			// Arrival n is scheduled at start + n*interval, computed
			// arithmetically rather than from a ticker: tickers coalesce
			// missed ticks, which would silently stretch the schedule
			// whenever this goroutine falls behind (or -rate exceeds tick
			// granularity) — understating the coordinated omission
			// open-loop mode exists to measure. Behind schedule, the loop
			// emits without sleeping until it catches up; every arrival
			// that can't be enqueued counts as dropped.
			interval := time.Duration(float64(time.Second) / r.cfg.Rate)
			if interval <= 0 {
				interval = time.Nanosecond
			}
			schedStart := time.Now()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for n := int64(0); ; n++ {
				at := schedStart.Add(time.Duration(n) * interval)
				if wait := time.Until(at); wait > 0 {
					timer.Reset(wait)
					select {
					case <-dctx.Done():
						return
					case <-timer.C:
					}
				} else if dctx.Err() != nil {
					return
				}
				select {
				case arrivals <- at:
				default:
					droppedN.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	results := make([][]sample, r.cfg.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Concurrency; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(id)*7919))
			for {
				var schedAt time.Time
				if arrivals != nil {
					t, ok := <-arrivals
					if !ok {
						return
					}
					schedAt = t
				} else {
					if dctx.Err() != nil || time.Now().After(deadline) {
						return
					}
					schedAt = time.Now()
				}
				s := r.doOp(dctx, r.pickOp(rng), rng)
				s.ms = float64(time.Since(schedAt)) / float64(time.Millisecond)
				if dctx.Err() != nil {
					return // deadline mid-request: discard the truncated sample
				}
				results[id] = append(results[id], s)
			}
		}(i)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, rs := range results {
		samples = append(samples, rs...)
	}
	return samples, droppedN.Load(), elapsed
}

func (r *runner) pickOp(rng *rand.Rand) string {
	n := rng.Intn(r.mix[len(r.mix)-1].cum)
	for _, m := range r.mix {
		if n < m.cum {
			return m.op
		}
	}
	return r.mix[len(r.mix)-1].op
}

// doOp issues one operation of the given class and classifies the result.
func (r *runner) doOp(ctx context.Context, op string, rng *rand.Rand) sample {
	s := sample{op: op}
	switch op {
	case opPredict:
		body := r.predictBodies[rng.Intn(len(r.predictBodies))]
		code, tr, err := r.do(ctx, http.MethodPost, "/v1/models/"+r.modelID+"/predict", body, nil)
		s.classify(code, err, http.StatusOK)
		s.trace = tr
	case opInsert:
		body := r.insertBodies[rng.Intn(len(r.insertBodies))]
		code, tr, err := r.do(ctx, http.MethodPost, "/v1/models/"+r.modelID+"/insert", body, nil)
		s.classify(code, err, http.StatusAccepted)
		s.trace = tr
	case opFit:
		var resp struct {
			Model struct {
				ID string `json:"id"`
			} `json:"model"`
		}
		code, tr, err := r.do(ctx, http.MethodPost, "/v1/models", r.fitBody, &resp)
		s.classify(code, err, http.StatusCreated)
		s.trace = tr
		if code == http.StatusCreated && resp.Model.ID != "" {
			// The cycle's model served its purpose; free the store slot.
			// Deletion is part of the op's measured cost.
			if dcode, _, derr := r.do(ctx, http.MethodDelete, "/v1/models/"+resp.Model.ID, nil, nil); derr != nil || dcode != http.StatusOK {
				s.err = true
			}
		}
	}
	return s
}

// classify folds a response into the sample: the wanted status is success,
// 429/409 are backpressure (rejected), anything else — including transport
// errors — is an error.
func (s *sample) classify(code int, err error, want int) {
	switch {
	case err != nil:
		s.err = true
	case code == want:
	case code == http.StatusTooManyRequests || code == http.StatusConflict:
		s.rejected = true
	default:
		s.err = true
	}
}

// do issues one request, decodes into out when non-nil and the status is
// 2xx, and always drains the body so connections are reused. trace is the
// response's X-Laf-Trace header — empty when the server didn't sample the
// request (or predates tracing).
func (r *runner) do(ctx context.Context, method, path string, body []byte, out any) (code int, trace string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.URL+path, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	trace = resp.Header.Get("X-Laf-Trace")
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, trace, err
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, trace, nil
}

// quantile returns the linearly interpolated q-quantile of an ascending
// sorted slice; exact, since lafload keeps every sample in memory.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
