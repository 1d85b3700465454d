package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// smokeScale shrinks every workload's inputs so a run takes seconds.
const smokeScale = 0.1

// spec is the part of BENCHMARK.json the smoke tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs one tiny workload the way the command does and returns its
// exit status and the result line it printed.
func smoke(t *testing.T, workload string, trace int, fault string) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(config{
		workload: workload, seed: 1, seconds: 0.3, trace: trace,
		scale: smokeScale, tmpdir: t.TempDir(), fault: fault,
	}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: no result line (exit %d): %v\nstderr:\n%s", workload, code, err, stderr.String())
	}
	return code, res
}

// TestMetricsMatchBenchmarkJSON pins the program's metric and workload
// lists to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var impl []string
	for name := range workloads {
		impl = append(impl, name)
	}
	slices.Sort(names)
	slices.Sort(impl)
	if !slices.Equal(names, impl) {
		t.Errorf("BENCHMARK.json workloads %v, program implements %v", names, impl)
	}
	for _, c := range []struct {
		key  string
		defs []metricDef
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, s.EndToEnd}, {"per_layer", perLayer, s.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.key, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.key, i, j.Name, j.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it passes its own checks and prints exactly the metrics of
// its mode, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			code, res := smoke(t, w.Name, trace, "")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct %v, attempted %d, failed %d",
					w.Name, trace, code, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.Name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestCorruptedLabelsFail injects wrong labels into every workload and
// checks that the correctness checks catch them and the run exits
// non-zero.
func TestCorruptedLabelsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range loadSpec(t).Workloads {
		code, res := smoke(t, w.Name, 0, "labels")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with corrupted labels: exit %d, correct %v, failed %d", w.Name, code, res.Correct, res.Failed)
		}
	}
}
