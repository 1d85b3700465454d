// Command lafbench regenerates the tables and figures of the paper's
// evaluation section (Wang & Wang, EDBT 2023).
//
// Usage:
//
//	lafbench [-experiment all|table1|table2|table3|table4|table5|table6|figure1|figure2|figure3|figure4]
//
// Dataset scales default to laptop-friendly stand-ins for the paper's
// 50k-150k corpora; set LAF_BENCH_SCALE=medium or large to grow them.
// Estimator training happens once per dataset and is excluded from all
// reported clustering times, as in the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lafdbscan"
	"lafdbscan/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lafbench: ")
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, table1..table6, figure1..figure4, ablation")
	workers := flag.Int("workers", 0,
		"cores for DBSCAN, DBSCAN++ and the LAF variants: 0 = all cores, 1 = one core (for paper-figure timing); labels are identical at every setting")
	waveSize := flag.Int("wave", 0,
		"range queries per neighbor-discovery wave (0 = auto)")
	flag.Parse()

	// The engine knobs are the only flag-fed clustering parameters here
	// (eps/tau come from the experiment tables); Params.Validate covers
	// their domain — the same rules the library enforces at its entry
	// points — with placeholder density parameters.
	knobs := lafdbscan.Params{
		Eps: 1, Tau: 1,
		Workers: *workers, WaveSize: *waveSize,
	}
	if err := knobs.Validate(); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Workers = *workers
	cfg.WaveSize = *waveSize
	w := bench.NewWorkbench(cfg)
	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	out := os.Stdout
	run("table1", func() error {
		bench.FprintTable1(out, w.Table1())
		return nil
	})
	run("table2", func() error {
		cells, err := w.Table2()
		if err != nil {
			return err
		}
		bench.FprintTable2(out, cells, w.MSKeys())
		return nil
	})
	run("table3", func() error {
		rows, err := w.Table3()
		if err != nil {
			return err
		}
		bench.FprintQuality(out, "Table 3: clustering quality on the three largest datasets",
			rows, w.LargestKeys())
		return nil
	})
	run("table4", func() error {
		rows, err := w.Table4()
		if err != nil {
			return err
		}
		bench.FprintTable4(out, rows, w.MSKeys())
		return nil
	})
	run("table5", func() error {
		rows, err := w.Table5()
		if err != nil {
			return err
		}
		bench.FprintQuality(out, "Table 5: clustering quality across dataset scales (eps=0.55, tau=5)",
			rows, w.MSKeys())
		return nil
	})
	run("table6", func() error {
		rows, err := w.Table6()
		if err != nil {
			return err
		}
		bench.FprintTable6(out, rows)
		return nil
	})
	run("figure1", func() error {
		rows, err := w.Figure1()
		if err != nil {
			return err
		}
		bench.FprintTimes(out, "Figure 1: clustering time on the three largest datasets",
			rows, w.LargestKeys())
		return nil
	})
	run("figure2", func() error {
		pts, err := w.Figure2()
		if err != nil {
			return err
		}
		bench.FprintTradeoff(out, "Figure 2: speed-quality trade-off on MS-like (eps=0.5, tau=3)", pts)
		return nil
	})
	run("figure3", func() error {
		pts, err := w.Figure3()
		if err != nil {
			return err
		}
		bench.FprintTradeoff(out, "Figure 3: speed-quality trade-off on GloVe-like (eps=0.5, tau=3)", pts)
		return nil
	})
	run("figure4", func() error {
		rows, err := w.Figure4()
		if err != nil {
			return err
		}
		bench.FprintFigure4(out, rows, w.MSKeys())
		return nil
	})
	run("ablation", func() error {
		rows, err := w.PostProcessingAblation()
		if err != nil {
			return err
		}
		bench.FprintAblation(out, "Ablation: LAF-DBSCAN post-processing (eps=0.55, tau=5)", rows)
		return nil
	})

	valid := []string{"all", "table1", "table2", "table3", "table4", "table5", "table6",
		"figure1", "figure2", "figure3", "figure4", "ablation"}
	found := false
	for _, v := range valid {
		if *experiment == v {
			found = true
		}
	}
	if !found {
		log.Fatalf("unknown experiment %q; valid: %s", *experiment, strings.Join(valid, ", "))
	}
}
