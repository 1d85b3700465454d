// Command perfbench is the clustering engine's end-to-end benchmark. Each
// invocation runs one workload in its own process, on inputs generated from
// --seed, and measures it from outside by timing calls into the public API
// (and internal/serve's HTTP handler). An untraced run prints the
// end-to-end metrics; a traced run (--trace 1) records spans around every
// call and prints the per-layer metrics instead. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the exit status is non-zero when a correctness check fails.
//
// run.py builds and runs it; README.md describes the workloads, the metrics
// and the steadiness rules behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	tmpdir   string
	traceOut string
	fault    string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fit-ms, stream-glove or hnsw-glove")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&cfg.scale, "scale", 1, "input size factor in (0, 1]; the smoke tests run tiny inputs")
	flag.StringVar(&cfg.tmpdir, "tmpdir", "", "directory for the run's journals; a per-run subdirectory is created and removed")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the spans of a traced run are written to")
	flag.StringVar(&cfg.fault, "fault", "", `"labels" corrupts the labels under test, so the correctness checks must fail`)
	flag.Parse()
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the process exit status.
func run(cfg config, stdout, stderr io.Writer) int {
	wl, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case cfg.seconds <= 0, cfg.trace != 0 && cfg.trace != 1, cfg.scale <= 0 || cfg.scale > 1, cfg.tmpdir == "",
		cfg.fault != "" && cfg.fault != "labels":
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0 or 1, --scale in (0, 1], --tmpdir, and --fault empty or labels")
		return 2
	}
	dir, err := os.MkdirTemp(cfg.tmpdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// One caller and at most two workers: the engine's pools, the HTTP
	// server and the client all share the same cores, so more threads than
	// cores would measure the scheduler.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	b := newBench(cfg, dir)
	if err := wl(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if b.tr != nil && cfg.traceOut != "" {
		if err := b.tr.write(cfg.traceOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, p := range b.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}
