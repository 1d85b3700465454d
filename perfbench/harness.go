package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints and perLayer those a
// traced run prints. BENCHMARK.json at the repository root declares the
// same names and units; the smoke test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"predict_ms", "ms"},
	{"insert_ms", "ms"},
	{"ari", "ratio"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"vecmath.dist_ns", "ns"},
	{"vecmath.dist_evals", "count"},
	{"index.brute_query1_us", "us"},
	{"index.brute_batch_query_us", "us"},
	{"index.range_queries", "count"},
	{"hnsw.build_s", "s"},
	{"hnsw.build_alloc_mb", "MB"},
	{"hnsw.query_us", "us"},
	{"hnsw.recall", "ratio"},
	{"cardest.train_s", "s"},
	{"cardest.estimate_us", "us"},
	{"core.skipped_queries", "count"},
	{"core.skip_ratio", "ratio"},
	{"cluster.exact_fit_s", "s"},
	{"cluster.clusters", "count"},
	{"cluster.cores", "count"},
	{"model.overlay_build_s", "s"},
	{"model.predict_p50_ms", "ms"},
	{"model.predict_p99_ms", "ms"},
	{"model.predict_samples", "count"},
	{"model.insert_p50_ms", "ms"},
	{"model.insert_p99_ms", "ms"},
	{"model.insert_samples", "count"},
	{"model.promoted_per_insert", "count"},
	{"model.alloc_kb_per_predict", "KB"},
	{"model.alloc_kb_per_insert", "KB"},
	{"wal.snapshot_s", "s"},
	{"wal.bytes_per_insert", "bytes"},
	{"wal.fsync_ms", "ms"},
	{"wal.recover_s", "s"},
	{"serve.register_s", "s"},
	{"serve.fit_s", "s"},
	{"serve.predict_p50_ms", "ms"},
	{"serve.predict_p99_ms", "ms"},
	{"serve.request_bytes", "bytes"},
	{"serve.overhead_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// blocks is how many consecutive blocks a timed phase's calls are cut into
// (see phaseMean).
const blocks = 10

// maxProblems caps the failure messages a run keeps for its error output.
const maxProblems = 20

// bench is one run: its configuration, the span recorder, the operation
// and check counters, and the metrics measured so far.
type bench struct {
	cfg       config
	ctx       context.Context
	dir       string // per-run scratch directory, removed when the run ends
	workers   int
	tr        *tracer // nil in untraced runs
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	gcCycles  uint32
	gcPause   time.Duration
}

func newBench(cfg config, dir string) *bench {
	b := &bench{
		cfg:     cfg,
		ctx:     context.Background(),
		dir:     dir,
		workers: runtime.GOMAXPROCS(0),
		values:  map[string]float64{},
	}
	if cfg.trace == 1 {
		b.tr = &tracer{t0: time.Now(), on: true}
	}
	return b
}

// scaled sizes an input: full at --scale 1, never below floor.
func (b *bench) scaled(full, floor int) int {
	return max(floor, int(math.Round(float64(full)*b.cfg.scale)))
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) has(name string) bool {
	_, ok := b.values[name]
	return ok
}

// setDefault records a probe's value unless the workload measured the
// metric on its own calls.
func (b *bench) setDefault(name string, v float64) {
	if !b.has(name) {
		b.set(name, v)
	}
}

// fail marks the operation or check just counted as failed.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < maxProblems {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one verification as an operation; a false ok fails it, and
// with it the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// result assembles the printed result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (b *bench) result() (result, error) {
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return res, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// phase collects the wall times of one kind of call, in call order.
type phase struct {
	ms      []float64 // wall time per call
	traced  []bool    // whether spans were on during the call
	allocKB float64   // heap allocated during the calls, traced runs only
}

// time runs fn as one counted operation of ph. In traced runs it records a
// root span around the call while spans are on, and the heap the call
// allocated. An error from fn fails the operation and is returned.
func (b *bench) time(ph *phase, name string, fn func() error) error {
	var a0 uint64
	if b.tr != nil {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	sp := b.tr.begin(ref{}, name)
	err := fn()
	b.tr.end(sp)
	d := time.Since(t0)
	if b.tr != nil {
		ph.allocKB += float64(heapAllocs()-a0) / 1024
	}
	ph.ms = append(ph.ms, float64(d)/float64(time.Millisecond))
	ph.traced = append(ph.traced, b.tr.recording())
	b.attempted++
	if err != nil {
		b.fail("%s: %v", name, err)
	}
	return err
}

// step runs one call outside the timed phases (a set-up step, a reference
// fit, a probe) under a span that is a child of parent, and returns its
// wall time in seconds.
func (b *bench) step(parent ref, name string, fn func() error) (float64, error) {
	t0 := time.Now()
	sp := b.tr.begin(parent, name)
	err := fn()
	b.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// setup runs prep reps times, each time from scratch, and records the
// median wall time as setup_s. Each repetition is one traced operation
// whose steps are child spans of sp.
func (b *bench) setup(reps int, prep func(rep int, sp ref) error) error {
	s := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		sp := b.tr.begin(ref{}, "setup")
		err := prep(rep, sp)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(s))
	return nil
}

// loop is a timed phase: it runs round(0), round(1), ... back to back for
// d, at least once, and stops early on a round's error. The collector runs
// first so the phase pays only for its own garbage. In traced runs spans
// are on in even rounds only, so trace.overhead_pct compares calls made
// with and without them under the same conditions.
func (b *bench) loop(d time.Duration, round func(i int) error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := time.Now().Add(d)
	var err error
	for i := 0; err == nil && (i == 0 || time.Now().Before(end)); i++ {
		b.tr.setOn(i%2 == 0)
		err = round(i)
	}
	b.tr.setOn(true)
	runtime.ReadMemStats(&m1)
	b.gcCycles += m1.NumGC - m0.NumGC
	b.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return err
}

// finish records what every workload measures the same way: peak memory,
// the collector's share of the timed phases, and the cost of the spans
// around the calls of the timed phases.
func (b *bench) finish(timed ...*phase) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("rss_peak_mb", rss)
	b.set("go.gc_cycles", float64(b.gcCycles))
	b.set("go.gc_pause_ms", float64(b.gcPause)/float64(time.Millisecond))
	b.set("trace.overhead_pct", traceOverheadPct(timed...))
	return nil
}

// setCallLayer records the per-call distribution of one kind of library
// call ("predict" or "insert") as model.* per-layer metrics.
func (b *bench) setCallLayer(kind string, ph *phase) {
	b.set("model."+kind+"_p50_ms", quantile(ph.ms, 0.5))
	b.set("model."+kind+"_p99_ms", quantile(ph.ms, 0.99))
	b.set("model."+kind+"_samples", float64(len(ph.ms)))
	b.set("model.alloc_kb_per_"+kind, ph.allocKB/float64(max(1, len(ph.ms))))
}

// phaseMean turns a timed phase into one end-to-end value: the calls, in
// order, are cut into ten consecutive blocks (fewer with fewer calls), and
// the lower quartile of the block means is reported. Each block is summed
// wall time over calls; the shared host's slow episodes only ever add
// time, so the lower quartile is the estimate they disturb least, and it
// holds while they cover fewer than three quarters of the phase.
func phaseMean(xs []float64) float64 {
	k := min(blocks, len(xs))
	if k == 0 {
		return math.NaN()
	}
	means := make([]float64, k)
	for i := range means {
		means[i] = mean(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return quantile(means, 0.25)
}

// traceOverheadPct compares, for each timed phase, the calls made with
// spans on against those made with spans off, and returns the mean
// relative difference in percent.
func traceOverheadPct(timed ...*phase) float64 {
	var sum float64
	var n int
	for _, ph := range timed {
		var on, off []float64
		for i, v := range ph.ms {
			if ph.traced[i] {
				on = append(on, v)
			} else {
				off = append(off, v)
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		sum += 100 * (phaseMean(on)/phaseMean(off) - 1)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the bytes allocated on the heap since the process
// started (Go's TotalAlloc, read without stopping the world).
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// tracer keeps a traced run's spans in memory until the run ends. Every
// call into a layer gets a span (name, start, end, parent); the spans of
// one operation share a trace id. Only the benchmark's own goroutine
// records spans, so the tracer needs no locking. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	on    bool
	next  uint64
	spans []span
}

type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ref points at a recorded span; the zero ref is no span.
type ref struct {
	trace, id uint64
	i         int
}

// begin opens a span under parent, or a root span with a new trace id when
// parent is the zero ref.
func (t *tracer) begin(parent ref, name string) ref {
	if t == nil || !t.on {
		return ref{}
	}
	t.next++
	trace := parent.trace
	if trace == 0 {
		trace = t.next
	}
	t.spans = append(t.spans, span{Trace: trace, ID: t.next, Parent: parent.id, Name: name, Start: int64(time.Since(t.t0))})
	return ref{trace: trace, id: t.next, i: len(t.spans) - 1}
}

func (t *tracer) end(r ref) {
	if t == nil || r.id == 0 {
		return
	}
	t.spans[r.i].End = int64(time.Since(t.t0))
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on = on
	}
}

func (t *tracer) recording() bool { return t != nil && t.on }

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
