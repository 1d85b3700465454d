package bench

import (
	"fmt"
	"io"
	"time"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/metrics"
)

// --- Figure 1: clustering time bars ------------------------------------

// TimeRow is one bar of the paper's timing figures.
type TimeRow struct {
	Dataset string
	Setting Setting
	Method  string
	Elapsed time.Duration
}

// Figure1 times every method (including exact DBSCAN) on the three largest
// datasets at all paper settings — the bars of Figure 1(a)-(c).
func (w *Workbench) Figure1() ([]TimeRow, error) {
	return w.Times(w.LargestKeys(), PaperSettings())
}

// Times runs every method on the given keys and settings and records the
// wall time.
func (w *Workbench) Times(keys []string, settings []Setting) ([]TimeRow, error) {
	var rows []TimeRow
	for _, s := range settings {
		for _, key := range keys {
			for _, method := range AllMethods() {
				res, err := w.RunMethod(method, key, s)
				if err != nil {
					return nil, err
				}
				rows = append(rows, TimeRow{Dataset: key, Setting: s, Method: method, Elapsed: res.Elapsed})
			}
		}
	}
	return rows, nil
}

// FprintTimes renders timing rows grouped per setting, one dataset column
// per method row — the textual equivalent of the paper's bar charts.
func FprintTimes(out io.Writer, title string, rows []TimeRow, keys []string) {
	fmt.Fprintln(out, title)
	type ck struct {
		s      Setting
		method string
		ds     string
	}
	cells := make(map[ck]time.Duration)
	var settings []Setting
	seen := make(map[Setting]bool)
	for _, r := range rows {
		cells[ck{r.Setting, r.Method, r.Dataset}] = r.Elapsed
		if !seen[r.Setting] {
			seen[r.Setting] = true
			settings = append(settings, r.Setting)
		}
	}
	for _, s := range settings {
		fmt.Fprintf(out, "  eps=%.2f tau=%d  (seconds)\n", s.Eps, s.Tau)
		fmt.Fprintf(out, "    %-14s", "Method")
		for _, k := range keys {
			fmt.Fprintf(out, " %12s", k)
		}
		fmt.Fprintln(out)
		for _, m := range AllMethods() {
			fmt.Fprintf(out, "    %-14s", m)
			for _, k := range keys {
				d, ok := cells[ck{s, m, k}]
				if !ok {
					fmt.Fprintf(out, " %12s", "-")
					continue
				}
				fmt.Fprintf(out, " %12.3f", d.Seconds())
			}
			fmt.Fprintln(out)
		}
	}
}

// --- Figures 2 & 3: speed-quality trade-off ----------------------------

// TradeoffPoint is one point of a trade-off curve: AMI on the x axis,
// clustering time on the y axis, exactly as the paper plots them.
type TradeoffPoint struct {
	Method string
	// Knob documents the parameter value that produced the point.
	Knob    string
	AMI     float64
	Elapsed time.Duration
}

// Tradeoff sweeps every method's quality knob on one dataset at the paper's
// trade-off setting (eps=0.5, tau=3):
//
//   - LAF-DBSCAN: alpha 1.1 - 15 (the paper's range)
//   - DBSCAN++ and LAF-DBSCAN++: delta 0.1 - 0.9 (sample fraction offset)
//   - KNN-BLOCK: branching 3 - 20 with leaves ratio 0.001 - 0.3
//   - BLOCK-DBSCAN: cover tree base 1.1 - 5
func (w *Workbench) Tradeoff(key string) ([]TradeoffPoint, error) {
	s := Setting{0.5, 3}
	truth, err := w.GroundTruth(key, s)
	if err != nil {
		return nil, err
	}
	est, err := w.Estimator(key)
	if err != nil {
		return nil, err
	}
	pts := w.TestSet(key).Vectors
	var out []TradeoffPoint
	add := func(method, knob string, res *cluster.Result, err error) error {
		if err != nil {
			return err
		}
		ami, err := metrics.AMI(truth.Labels, res.Labels)
		if err != nil {
			return err
		}
		out = append(out, TradeoffPoint{Method: method, Knob: knob, AMI: ami, Elapsed: res.Elapsed})
		return nil
	}

	for _, alpha := range []float64{1.1, 2, 4, 8, 15} {
		res, err := (&core.LAFDBSCAN{Points: pts, Config: core.Config{
			Eps: s.Eps, Tau: s.Tau, Alpha: alpha, Estimator: est, Seed: w.Cfg.Seed,
		}}).Run()
		if err := add("LAF-DBSCAN", fmt.Sprintf("alpha=%.1f", alpha), res, err); err != nil {
			return nil, err
		}
	}
	rc := core.PredictedCoreRatio(pts, est, s.Eps, s.Tau, w.Alpha(key))
	for _, delta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := delta + rc
		if p > 1 {
			p = 1
		}
		res, err := (&core.LAFDBSCANPP{Points: pts, P: p, Config: core.Config{
			Eps: s.Eps, Tau: s.Tau, Alpha: 1, Estimator: core.OpenGate, Seed: w.Cfg.Seed,
			DisablePostProcessing: true,
		}}).Run()
		if err := add("DBSCAN++", fmt.Sprintf("delta=%.1f", delta), res, err); err != nil {
			return nil, err
		}
		lres, err := (&core.LAFDBSCANPP{Points: pts, P: p, Config: core.Config{
			Eps: s.Eps, Tau: s.Tau, Alpha: 1.0, Estimator: est, Seed: w.Cfg.Seed,
		}}).Run()
		if err := add("LAF-DBSCAN++", fmt.Sprintf("delta=%.1f", delta), lres, err); err != nil {
			return nil, err
		}
	}
	knnKnobs := []struct {
		branching int
		leaves    float64
	}{{3, 0.001}, {5, 0.01}, {10, 0.05}, {15, 0.15}, {20, 0.3}}
	for _, k := range knnKnobs {
		res, err := (&cluster.KNNBlock{Points: pts, Eps: s.Eps, Tau: s.Tau,
			Branching: k.branching, LeavesRatio: k.leaves, Seed: w.Cfg.Seed}).Run()
		if err := add("KNN-BLOCK", fmt.Sprintf("b=%d,r=%.3f", k.branching, k.leaves), res, err); err != nil {
			return nil, err
		}
	}
	for _, base := range []float64{1.1, 1.5, 2, 3.5, 5} {
		res, err := (&cluster.BlockDBSCAN{Points: pts, Eps: s.Eps, Tau: s.Tau,
			Base: base, RNT: 10, Seed: w.Cfg.Seed}).Run()
		if err := add("BLOCK-DBSCAN", fmt.Sprintf("base=%.1f", base), res, err); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Figure2 is the trade-off sweep on the MS-like large dataset.
func (w *Workbench) Figure2() ([]TradeoffPoint, error) { return w.Tradeoff(KeyMSLarge) }

// Figure3 is the trade-off sweep on the GloVe-like dataset.
func (w *Workbench) Figure3() ([]TradeoffPoint, error) { return w.Tradeoff(KeyGlove) }

// FprintTradeoff renders the curve points as (AMI, seconds) series.
func FprintTradeoff(out io.Writer, title string, pts []TradeoffPoint) {
	fmt.Fprintln(out, title)
	fmt.Fprintf(out, "%-14s %-16s %8s %10s\n", "Method", "Knob", "AMI", "Time(s)")
	for _, p := range pts {
		fmt.Fprintf(out, "%-14s %-16s %8.4f %10.3f\n", p.Method, p.Knob, p.AMI, p.Elapsed.Seconds())
	}
}

// --- Figure 4: scalability ---------------------------------------------

// Figure4 times every method across the three MS-like scales at
// (0.55, 5) — the lines of the paper's Figure 4.
func (w *Workbench) Figure4() ([]TimeRow, error) {
	return w.Times(w.MSKeys(), []Setting{{0.55, 5}})
}

// FprintFigure4 renders the scaling series with the largest-scale times
// called out, as the paper annotates them.
func FprintFigure4(out io.Writer, rows []TimeRow, msKeys []string) {
	FprintTimes(out, "Figure 4: clustering time vs dataset scale (eps=0.55, tau=5)", rows, msKeys)
	fmt.Fprintln(out, "  annotations (largest scale):")
	for _, r := range rows {
		if r.Dataset == msKeys[len(msKeys)-1] {
			fmt.Fprintf(out, "    %-14s %8.1fs\n", r.Method, r.Elapsed.Seconds())
		}
	}
}
