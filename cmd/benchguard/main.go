// Command benchguard compares two Go benchmark output files (the committed
// baseline and a fresh run) and fails when a benchmark's allocations per
// operation regressed beyond a threshold. The CI bench job runs it after
// benchstat: benchstat renders the human-readable comparison, benchguard is
// the machine gate that turns a memory regression into a red build.
//
// Usage:
//
//	benchguard -baseline old.txt -current new.txt [-pattern regexp] [-threshold 25] [-json report.json]
//	benchguard -load-baseline old.json -load-current new.json [-load-threshold 50] [-soft] [-json report.json]
//
// Allocation counts follow GOMAXPROCS: brute-force scans shard across
// goroutines above a size threshold, and every shard allocates. So the two
// files must be recorded at the same GOMAXPROCS (go test -cpu N), and
// benchguard fails with a "GOMAXPROCS mismatch" message when their
// -GOMAXPROCS name suffixes differ. Names are then matched exactly; only
// benchmarks present in both files are compared. ns/op is reported but
// never gated — wall-clock varies across runners even at one GOMAXPROCS.
//
// The second form is the macro-latency gate: both inputs are cmd/lafload
// JSON reports, and any op class whose p99 latency grew beyond
// -load-threshold percent fails the gate. Latency does vary across
// runners, so CI's shared-runner invocation passes -soft (print the
// comparison, never fail the build); see docs/OPERATIONS.md for when a
// hard gate is appropriate and how to refresh the committed baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine is one parsed benchmark result.
type benchLine struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HasMem      bool    `json:"has_mem"`
}

// comparison is one baseline/current pair in the JSON report.
type comparison struct {
	Name            string  `json:"name"`
	BaselineAllocs  float64 `json:"baseline_allocs_per_op"`
	CurrentAllocs   float64 `json:"current_allocs_per_op"`
	AllocsChangePct float64 `json:"allocs_change_pct"`
	BaselineBytes   float64 `json:"baseline_bytes_per_op"`
	CurrentBytes    float64 `json:"current_bytes_per_op"`
	BytesChangePct  float64 `json:"bytes_change_pct"`
	Regressed       bool    `json:"regressed"`
}

// resultLine matches "BenchmarkName-8  10  123 ns/op  456 B/op  7 allocs/op"
// (the memory columns are present under -benchmem). Custom metrics between
// ns/op and B/op are tolerated. The name keeps its -GOMAXPROCS suffix.
var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// procsSuffix matches a trailing "-N" on a benchmark name.
var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// gomaxprocs returns the GOMAXPROCS a benchmark file was recorded at. go
// test appends "-N" to every name when GOMAXPROCS is N > 1 and nothing at
// 1, but a sub-benchmark name may itself end in "-digits"
// ("recluster-100"), so a suffix counts only when every name carries the
// same one.
func gomaxprocs(lines map[string]benchLine) int {
	procs := ""
	for name := range lines {
		m := procsSuffix.FindStringSubmatch(name)
		if m == nil || (procs != "" && m[1] != procs) {
			return 1
		}
		procs = m[1]
	}
	n, err := strconv.Atoi(procs)
	if err != nil {
		return 1
	}
	return n
}

// checkProcs fails when the two files were recorded at different
// GOMAXPROCS, whose allocation counts are not comparable.
func checkProcs(base, cur map[string]benchLine) error {
	if b, c := gomaxprocs(base), gomaxprocs(cur); b != c {
		return fmt.Errorf("GOMAXPROCS mismatch: baseline recorded at %d, current at %d; rerun the benchmarks with -cpu %d", b, c, b)
	}
	return nil
}

func parseFile(path string) (map[string]benchLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]benchLine)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		mm := resultLine.FindStringSubmatch(sc.Text())
		if mm == nil {
			continue
		}
		l := benchLine{Name: mm[1]}
		l.NsPerOp, _ = strconv.ParseFloat(mm[2], 64)
		if mm[3] != "" {
			l.BytesPerOp, _ = strconv.ParseFloat(mm[3], 64)
			l.AllocsPerOp, _ = strconv.ParseFloat(mm[4], 64)
			l.HasMem = true
		}
		out[l.Name] = l
	}
	return out, sc.Err()
}

// changePct returns the relative growth of cur over base in percent; a
// zero-allocation baseline only regresses if the current run allocates.
func changePct(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur - base) / base * 100
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		baselinePath = flag.String("baseline", "", "committed baseline benchmark output (required)")
		currentPath  = flag.String("current", "", "fresh benchmark output to gate (required)")
		pattern      = flag.String("pattern", ".", "regexp selecting which benchmarks to gate")
		threshold    = flag.Float64("threshold", 25, "maximum tolerated allocs/op growth in percent")
		jsonPath     = flag.String("json", "", "optional path for a machine-readable comparison report")

		loadBaseline  = flag.String("load-baseline", "", "committed lafload JSON baseline (selects load mode)")
		loadCurrent   = flag.String("load-current", "", "fresh lafload JSON report to gate")
		loadThreshold = flag.Float64("load-threshold", 50, "maximum tolerated p99 latency growth in percent")
		soft          = flag.Bool("soft", false, "report load regressions without failing (shared runners)")
	)
	flag.Parse()
	if *loadBaseline != "" || *loadCurrent != "" {
		if *loadBaseline == "" || *loadCurrent == "" {
			flag.Usage()
			os.Exit(2)
		}
		regressed, err := runLoadGate(*loadBaseline, *loadCurrent, *jsonPath, *loadThreshold)
		if err != nil {
			log.Fatal(err)
		}
		if regressed > 0 {
			if *soft {
				fmt.Printf("benchguard: %d op classes regressed beyond %+.0f%% p99 (soft mode, not failing)\n",
					regressed, *loadThreshold)
				return
			}
			log.Fatalf("%d op classes regressed beyond %+.0f%% p99 latency", regressed, *loadThreshold)
		}
		fmt.Printf("benchguard: load report within %+.0f%% p99 of baseline\n", *loadThreshold)
		return
	}
	if *baselinePath == "" || *currentPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	sel, err := regexp.Compile(*pattern)
	if err != nil {
		log.Fatalf("bad -pattern: %v", err)
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		log.Fatalf("reading baseline: %v", err)
	}
	cur, err := parseFile(*currentPath)
	if err != nil {
		log.Fatalf("reading current: %v", err)
	}
	if err := checkProcs(base, cur); err != nil {
		log.Fatal(err)
	}

	var report []comparison
	compared, regressed := 0, 0
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic output order
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok || !sel.MatchString(name) || !c.HasMem || !b.HasMem {
			continue
		}
		compared++
		cmp := comparison{
			Name:           name,
			BaselineAllocs: b.AllocsPerOp, CurrentAllocs: c.AllocsPerOp,
			AllocsChangePct: changePct(b.AllocsPerOp, c.AllocsPerOp),
			BaselineBytes:   b.BytesPerOp, CurrentBytes: c.BytesPerOp,
			BytesChangePct: changePct(b.BytesPerOp, c.BytesPerOp),
		}
		cmp.Regressed = cmp.AllocsChangePct > *threshold
		if cmp.Regressed {
			regressed++
			fmt.Printf("FAIL %s: allocs/op %.0f -> %.0f (%+.1f%%, threshold %+.0f%%)\n",
				name, b.AllocsPerOp, c.AllocsPerOp, cmp.AllocsChangePct, *threshold)
		} else {
			fmt.Printf("ok   %s: allocs/op %.0f -> %.0f (%+.1f%%), B/op %.0f -> %.0f (%+.1f%%)\n",
				name, b.AllocsPerOp, c.AllocsPerOp, cmp.AllocsChangePct,
				b.BytesPerOp, c.BytesPerOp, cmp.BytesChangePct)
		}
		report = append(report, cmp)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatalf("encoding report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *jsonPath, err)
		}
	}
	if compared == 0 {
		log.Fatalf("no benchmarks matched both files and %q — baseline stale?", *pattern)
	}
	if regressed > 0 {
		log.Fatalf("%d of %d gated benchmarks regressed beyond %+.0f%% allocs/op", regressed, compared, *threshold)
	}
	fmt.Printf("benchguard: %d benchmarks within %+.0f%% allocs/op of baseline\n", compared, *threshold)
}
