package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCheckFileRepoPaths builds a small repository in a temp directory and
// checks which backticked paths resolve: existing files, directories and
// globs pass; a missing file is reported; Go identifiers, placeholders,
// other prefixes and fenced code are not treated as paths.
func TestCheckFileRepoPaths(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"internal/pkg/ok.go", "cmd/tool/main.go"} {
		p := filepath.Join(root, f)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc := "# Doc\n\n" +
		"Present: `internal/pkg/ok.go`, `cmd/tool/`, `internal/*/ok.go`.\n" +
		"Missing: `internal/pkg/gone.go`.\n" +
		"Not paths: `internal/bench.MeasureMem`, `internal/pkg`, `internal/<name>/x.go`, `lib/x.go`, `go run ./cmd/tool`.\n" +
		"```\n`docs/fenced.md`\n```\n"
	docPath := filepath.Join(root, "docs", "doc.md")
	if err := os.MkdirAll(filepath.Dir(docPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	problems, _, _, paths := checkFile(root, docPath)
	if paths != 4 {
		t.Errorf("counted %d repository paths, want 4", paths)
	}
	var broken []string
	for _, p := range problems {
		broken = append(broken, p.target)
	}
	if want := []string{"internal/pkg/gone.go"}; !slices.Equal(broken, want) {
		t.Fatalf("broken references = %v, want %v", broken, want)
	}
	if problems[0].line != 4 {
		t.Errorf("missing path reported on line %d, want 4", problems[0].line)
	}
}
