package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
	"lafdbscan/internal/serve"
	"lafdbscan/internal/vecmath"
)

// probeTime is the least time a probe repeats a cheap call for, so that
// its mean rests on many calls.
const probeTime = 200 * time.Millisecond

// probeSink keeps the results of the kernel and estimator probes live.
var probeSink float64

// layerInputs is what the traced run's probes measure the layers on: the
// workload's fitted points and held-out vectors, its radius and density
// threshold, and what the workload already built.
type layerInputs struct {
	points [][]float32
	held   heldOut
	eps    float64
	tau    int
	est    lafdbscan.Estimator  // nil: the probe trains one on points
	exact  *lafdbscan.Model     // exact DBSCAN over points; nil: the probe fits one
	graph  lafdbscan.RangeIndex // HNSW over points; nil: the probe builds one
}

// probeLayers times each layer from outside, on the workload's own data,
// in traced runs. Where the workload measured a layer on its own calls,
// that value stands and the probe's is dropped.
func (b *bench) probeLayers(in layerInputs) error {
	if b.tr == nil {
		return nil
	}
	b.probeKernel(in.points)
	b.probeBrute(in)
	if in.exact == nil {
		s, err := b.step(ref{}, "cluster.exact_fit", func() (err error) {
			in.exact, err = lafdbscan.Fit(b.ctx, in.points, lafdbscan.MethodDBSCAN, b.dbscanOpts(in.eps, in.tau)...)
			return err
		})
		if err != nil {
			return err
		}
		b.setDefault("cluster.exact_fit_s", s)
	}
	if err := b.probeServe(in); err != nil {
		return err
	}
	if err := b.probeWAL(in); err != nil {
		return err
	}
	if err := b.probeGraph(in); err != nil {
		return err
	}
	return b.probeEstimator(in)
}

// probeKernel times the distance kernel over pairs of the workload's
// points.
func (b *bench) probeKernel(points [][]float32) {
	sp := b.tr.begin(ref{}, "vecmath.distance")
	evals := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for i := range points {
			probeSink += vecmath.CosineDistanceUnit(points[i], points[(i+1)%len(points)])
		}
		evals += len(points)
	}
	d := time.Since(start)
	b.tr.end(sp)
	b.set("vecmath.dist_ns", float64(d.Nanoseconds())/float64(evals))
}

// probeBrute times the brute-force index on its two paths: one query per
// call (the Predict path) and a full wave of queries (the Fit path).
func (b *bench) probeBrute(in layerInputs) {
	bf := index.NewBruteForce(in.points, vecmath.CosineDistanceUnit)
	discard := func(int, []int) {}
	var one phase
	start := time.Now()
	for i := 0; i < len(in.held.probes) || time.Since(start) < probeTime; i++ {
		q := [][]float32{in.held.probes[i%len(in.held.probes)]}
		_ = b.time(&one, "index.brute_query1", func() error {
			return index.BatchRangeSearchFunc(b.ctx, bf, q, in.eps, b.workers, 0, 0, discard)
		})
	}
	b.set("index.brute_query1_us", 1000*mean(one.ms))
	wave := in.points[:min(len(in.points), index.ResolveWaveSize(0))]
	var full phase
	for r := 0; r < 3; r++ {
		_ = b.time(&full, "index.brute_batch", func() error {
			return index.BatchRangeSearchFunc(b.ctx, bf, wave, in.eps, b.workers, 0, 0, discard)
		})
	}
	b.set("index.brute_batch_query_us", 1000*median(full.ms)/float64(len(wave)))
}

// probeServe measures the serving layer on the workload's points: register
// and fit over HTTP, then single-vector predicts that alternate between
// HTTP and the library on identically fitted models, whose labels must
// agree.
func (b *bench) probeServe(in layerInputs) error {
	c, err := startServer()
	if err != nil {
		return err
	}
	defer c.close()
	body, err := json.Marshal(map[string]any{"name": "probe", "vectors": in.points})
	if err != nil {
		return err
	}
	s, err := b.step(ref{}, "serve.register", func() error { return c.call("POST", "/v1/datasets", body, nil) })
	if err != nil {
		return err
	}
	b.setDefault("serve.register_s", s)
	var id string
	s, err = b.step(ref{}, "serve.fit", func() (err error) {
		id, err = c.fit("probe", in.eps, in.tau, b.cfg.seed, b.workers)
		return err
	})
	if err != nil {
		return err
	}
	b.setDefault("serve.fit_s", s)
	var lib *lafdbscan.Model
	if _, err := b.step(ref{}, "model.fit", func() (err error) {
		lib, err = lafdbscan.Fit(b.ctx, normalized(in.points), lafdbscan.MethodDBSCAN, b.dbscanOpts(in.eps, in.tau)...)
		return err
	}); err != nil {
		return err
	}
	var viaHTTP, viaLib phase
	sent := 0
	n := b.scaled(256, 32)
	for i := 0; i < n; i++ {
		q := in.held.probes[i%len(in.held.probes)]
		req, err := json.Marshal(map[string]any{"vectors": [][]float32{q}})
		if err != nil {
			return err
		}
		sent += len(req)
		nq := [][]float32{vecmath.Normalized(q)}
		var got, want int
		_ = b.time(&viaHTTP, "serve.predict", func() (err error) {
			got, err = c.predict(id, req)
			return err
		})
		_ = b.time(&viaLib, "model.predict", func() error {
			labels, err := lib.Predict(b.ctx, nq)
			if err == nil {
				want = labels[0]
			}
			return err
		})
		b.check(got == want, "probe %d: served label %d, library label %d", i, got, want)
	}
	b.setDefault("serve.predict_p50_ms", quantile(viaHTTP.ms, 0.5))
	b.setDefault("serve.predict_p99_ms", quantile(viaHTTP.ms, 0.99))
	b.setDefault("serve.request_bytes", float64(sent)/float64(n))
	b.set("serve.overhead_ms", mean(viaHTTP.ms)-mean(viaLib.ms))
	if !b.has("model.predict_p50_ms") {
		b.setCallLayer("predict", &viaLib)
	}
	return nil
}

// probeWAL measures the journal on the workload's exact model, unless the
// workload journals its own: the initial snapshot, journaled inserts of
// held-out batches, and recovery, which must reproduce the live model.
func (b *bench) probeWAL(in layerInputs) error {
	if b.has("wal.snapshot_s") {
		return nil
	}
	dir := filepath.Join(b.dir, "wal-probe")
	var fsyncMS []float64
	opts := lafdbscan.DurableOptions{OnFsync: func(d time.Duration) {
		fsyncMS = append(fsyncMS, float64(d)/float64(time.Millisecond))
	}}
	var dm *lafdbscan.DurableModel
	s, err := b.step(ref{}, "wal.snapshot", func() (err error) {
		dm, err = lafdbscan.NewDurable(in.exact, dir, opts)
		return err
	})
	if err != nil {
		return err
	}
	defer dm.Close()
	b.set("wal.snapshot_s", s)
	st0 := dm.Stats()
	var ins phase
	for k := 0; k+batch <= len(in.held.walProbe); k += batch {
		vs := in.held.walProbe[k : k+batch]
		_ = b.time(&ins, "wal.insert", func() error {
			_, err := dm.Insert(b.ctx, vs)
			return err
		})
	}
	st := dm.Stats()
	b.set("wal.bytes_per_insert", float64(st.SegmentBytes-st0.SegmentBytes)/float64(max(1, st.SegmentRecords-st0.SegmentRecords)))
	b.set("wal.fsync_ms", mean(fsyncMS))
	if err := dm.Close(); err != nil {
		return err
	}
	var rec *lafdbscan.DurableModel
	s, err = b.step(ref{}, "wal.recover", func() (err error) {
		rec, _, err = lafdbscan.OpenDurable(b.ctx, dir, lafdbscan.DurableOptions{})
		return err
	})
	if err != nil {
		return err
	}
	defer rec.Close()
	b.set("wal.recover_s", s)
	b.sameModel("recovered probe model vs live model", rec.Model(), in.exact)
	return nil
}

// probeGraph measures HNSW on the workload's points: the build (unless the
// workload built the graph itself), the time of one graph range query
// before any mutation, and range recall against brute force on the probes.
func (b *bench) probeGraph(in layerInputs) error {
	graph := in.graph
	if graph == nil {
		a0 := heapAllocs()
		s, err := b.step(ref{}, "hnsw.build", func() (err error) {
			graph, _, err = lafdbscan.Params{IndexBackend: lafdbscan.IndexBackendAuto, Seed: b.cfg.seed}.
				NewIndex(in.points, lafdbscan.MetricCosine)
			return err
		})
		if err != nil {
			return err
		}
		b.set("hnsw.build_s", s)
		b.set("hnsw.build_alloc_mb", float64(heapAllocs()-a0)/(1<<20))
	}
	bf := index.NewBruteForce(in.points, vecmath.CosineDistanceUnit)
	var q phase
	found, total := 0, 0
	start := time.Now()
	for i := 0; i < len(in.held.probes) || time.Since(start) < probeTime; i++ {
		p := in.held.probes[i%len(in.held.probes)]
		var got []int
		_ = b.time(&q, "hnsw.range_search", func() error {
			got = graph.RangeSearch(p, in.eps)
			return nil
		})
		if i < len(in.held.probes) {
			want := bf.RangeSearch(p, in.eps)
			found += overlap(got, want)
			total += len(want)
		}
	}
	b.set("hnsw.query_us", 1000*mean(q.ms))
	recall := 1.0
	if total > 0 {
		recall = float64(found) / float64(total)
	}
	b.set("hnsw.recall", recall)
	return nil
}

// probeEstimator measures the learned cardinality estimator on the
// workload's data: training (unless the workload trained one) and one
// Estimate call.
func (b *bench) probeEstimator(in layerInputs) error {
	est := in.est
	if est == nil {
		s, err := b.step(ref{}, "cardest.train", func() (err error) {
			est, err = lafdbscan.TrainRMIEstimator(in.points, lafdbscan.EstimatorConfig{
				TargetSize: len(in.points), MaxQueries: b.scaled(400, 20), Seed: b.cfg.seed,
			})
			return err
		})
		if err != nil {
			return err
		}
		b.set("cardest.train_s", s)
	}
	sp := b.tr.begin(ref{}, "cardest.estimate")
	calls := 0
	start := time.Now()
	for calls < len(in.held.probes) || time.Since(start) < probeTime {
		probeSink += est.Estimate(in.held.probes[calls%len(in.held.probes)], in.eps)
		calls++
	}
	d := time.Since(start)
	b.tr.end(sp)
	b.set("cardest.estimate_us", float64(d)/float64(time.Microsecond)/float64(calls))
	return nil
}

// overlap counts the ids of got that are in want.
func overlap(got, want []int) int {
	in := make(map[int]bool, len(want))
	for _, id := range want {
		in[id] = true
	}
	n := 0
	for _, id := range got {
		if in[id] {
			n++
		}
	}
	return n
}

// client runs an in-process lafserve handler on a loopback listener and
// drives it as one closed-loop caller over one keep-alive connection.
type client struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

// startServer starts a server with lafserve's defaults (tracing every
// request, memory-only models) and its log discarded.
func startServer() (*client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	c := &client{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   time.Minute,
		},
	}
	go func() {
		defer close(c.done)
		_ = c.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return c, nil
}

// close drops the connection, stops the listener, waits for the serving
// goroutine and stops the server's job engine. The client is closed-loop,
// so no request is in flight.
func (c *client) close() {
	c.hc.CloseIdleConnections()
	_ = c.hs.Close() // the listener and connection are ours; nothing to report
	<-c.done
	c.srv.Close()
}

// do sends one request and reads the whole response. The returned bytes
// are valid until the next call.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

// call sends one request and decodes the JSON response into out, when out
// is not nil.
func (c *client) call(method, path string, body []byte, out any) error {
	raw, err := c.do(method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// fit fits an exact DBSCAN model over a registered dataset and returns its
// id.
func (c *client) fit(dataset string, eps float64, tau int, seed int64, workers int) (string, error) {
	body, err := json.Marshal(map[string]any{
		"dataset": dataset,
		"method":  lafdbscan.MethodDBSCAN,
		"params":  map[string]any{"eps": eps, "tau": tau, "seed": seed, "workers": workers},
	})
	if err != nil {
		return "", err
	}
	var out struct {
		Model struct {
			ID string `json:"id"`
		} `json:"model"`
	}
	if err := c.call("POST", "/v1/models", body, &out); err != nil {
		return "", err
	}
	return out.Model.ID, nil
}

// predict sends one pre-marshalled single-vector predict request and
// returns the label.
func (c *client) predict(id string, body []byte) (int, error) {
	var out struct {
		Labels []int `json:"labels"`
	}
	if err := c.call("POST", "/v1/models/"+id+"/predict", body, &out); err != nil {
		return 0, err
	}
	if len(out.Labels) != 1 {
		return 0, fmt.Errorf("predict returned %d labels for one vector", len(out.Labels))
	}
	return out.Labels[0], nil
}
