package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseText(t *testing.T, text string) map[string]benchLine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// oneCore is a run at GOMAXPROCS 1: no name suffix, and one sub-benchmark
// whose own name ends in "-digits".
const oneCore = `BenchmarkModelPredict/batch=1     	       2	   1000 ns/op	  100 B/op	   3 allocs/op
BenchmarkModelPredict/recluster-100	       2	   2000 ns/op	  200 B/op	   9 allocs/op
`

const twoCores = `BenchmarkModelPredict/batch=1-2     	       2	   1000 ns/op	  100 B/op	   3 allocs/op
BenchmarkModelPredict/recluster-100-2	       2	   2000 ns/op	  200 B/op	   9 allocs/op
`

// TestCheckProcs pins the GOMAXPROCS gate: files recorded at the same
// setting compare name for name, and files recorded at different settings
// fail with the named mismatch instead of being matched after stripping.
func TestCheckProcs(t *testing.T) {
	one, two := parseText(t, oneCore), parseText(t, twoCores)
	if _, ok := one["BenchmarkModelPredict/recluster-100"]; !ok {
		t.Fatalf("parsed names %v: a sub-benchmark's own -100 was stripped", one)
	}
	if got := gomaxprocs(one); got != 1 {
		t.Errorf("gomaxprocs(one core) = %d, want 1", got)
	}
	if got := gomaxprocs(two); got != 2 {
		t.Errorf("gomaxprocs(two cores) = %d, want 2", got)
	}
	if err := checkProcs(one, parseText(t, oneCore)); err != nil {
		t.Errorf("same GOMAXPROCS: %v", err)
	}
	err := checkProcs(one, two)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS mismatch") || !strings.Contains(err.Error(), "-cpu 1") {
		t.Errorf("mismatched GOMAXPROCS: err = %v", err)
	}
}
