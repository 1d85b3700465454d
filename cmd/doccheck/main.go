// Command doccheck is the documentation gate CI runs over the repository's
// markdown: it walks every *.md file, extracts inline links and images,
// and fails when an intra-repository link is broken — a missing file or
// directory, or a #fragment that matches no heading in the target
// document. It also resolves backticked repository paths (a code span
// starting with internal/, cmd/, docs/, examples/, perfbench/ or .github/
// and ending in a file extension or /) against the repository root, so
// prose cannot keep naming a file that was deleted or moved. External
// links (http, https, mailto) are reported in the summary but never
// fetched, so the gate is fast, offline and deterministic.
//
// Usage:
//
//	doccheck [-root dir]
//
// Exit status 0 when every intra-repo link resolves; 1 otherwise, with one
// line per broken link (file, line, target, reason).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target) and
// ![alt](target). Titles after the target ("...) are stripped separately.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// codeRe matches inline code spans without whitespace: the candidates for
// backticked repository paths.
var codeRe = regexp.MustCompile("`([^`\\s]+)`")

// repoPathPrefixes and repoPathExts decide which code spans are
// repository paths. A span must start with a prefix and end in an
// extension or /, so Go identifiers such as internal/bench.MeasureMem are
// not paths.
var (
	repoPathPrefixes = []string{"internal/", "cmd/", "docs/", "examples/", "perfbench/", ".github/"}
	repoPathExts     = []string{".go", ".md", ".json", ".yml", ".txt", ".py"}
)

// headingRe matches ATX headings, whose anchors GitHub derives.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

type problem struct {
	file   string
	line   int
	target string
	reason string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("doccheck: ")
	root := flag.String("root", ".", "repository root to scan")
	skip := flag.String("skip", "SNIPPETS.md,PAPERS.md,PAPER.md,ISSUE.md",
		"comma-separated base names to skip (reference files quoting external material)")
	flag.Parse()

	skipped := make(map[string]bool)
	for _, s := range strings.Split(*skip, ",") {
		if s = strings.TrimSpace(s); s != "" {
			skipped[s] = true
		}
	}
	var mdFiles []string
	err := filepath.WalkDir(*root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(name), ".md") && !skipped[name] {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	var problems []problem
	links, external, paths := 0, 0, 0
	for _, f := range mdFiles {
		ps, n, ext, np := checkFile(*root, f)
		problems = append(problems, ps...)
		links += n
		external += ext
		paths += np
	}

	fmt.Printf("doccheck: %d markdown files, %d links (%d external, not fetched), %d repository paths\n",
		len(mdFiles), links, external, paths)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Printf("%s:%d: broken reference %q: %s\n", p.file, p.line, p.target, p.reason)
		}
		os.Exit(1)
	}
}

// checkFile validates every link and backticked repository path of one
// markdown file, returning the problems plus the total link, external
// link and repository path counts. Paths resolve against root, links
// against the file's own directory.
func checkFile(root, path string) (problems []problem, links, external, paths int) {
	data, err := os.ReadFile(path)
	if err != nil {
		return []problem{{path, 0, "", err.Error()}}, 0, 0, 0
	}
	dir := filepath.Dir(path)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inFence := false
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		// Links inside fenced code blocks are examples, not references.
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range codeRe.FindAllStringSubmatch(text, -1) {
			if !isRepoPath(m[1]) {
				continue
			}
			paths++
			// Glob resolves plain paths and patterns such as
			// internal/*/doc.go alike.
			if matches, err := filepath.Glob(filepath.Join(root, m[1])); err != nil || len(matches) == 0 {
				problems = append(problems, problem{path, line, m[1], "no such repository path"})
			}
		}
		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			links++
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				external++
				continue
			case strings.HasPrefix(target, "#"):
				if !anchorExists(path, target[1:]) {
					problems = append(problems, problem{path, line, target, "no such heading in this file"})
				}
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			resolved := filepath.Join(dir, file)
			info, err := os.Stat(resolved)
			if err != nil {
				problems = append(problems, problem{path, line, target, "no such file or directory"})
				continue
			}
			if frag != "" {
				if info.IsDir() || !strings.EqualFold(filepath.Ext(file), ".md") {
					continue // fragments are only checkable in markdown targets
				}
				if !anchorExists(resolved, frag) {
					problems = append(problems, problem{path, line, target, "no such heading in " + file})
				}
			}
		}
	}
	return problems, links, external, paths
}

// isRepoPath reports whether a code span names a repository path. Spans
// with a <placeholder> are templates, not paths.
func isRepoPath(span string) bool {
	if strings.ContainsAny(span, "<>") ||
		!slices.ContainsFunc(repoPathPrefixes, func(p string) bool { return strings.HasPrefix(span, p) }) {
		return false
	}
	return strings.HasSuffix(span, "/") || slices.Contains(repoPathExts, filepath.Ext(span))
}

// anchorExists reports whether the markdown file has a heading whose
// GitHub-style anchor equals frag.
func anchorExists(path, frag string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	frag = strings.ToLower(frag)
	for _, line := range strings.Split(string(data), "\n") {
		if m := headingRe.FindStringSubmatch(line); m != nil {
			if slugify(m[1]) == frag {
				return true
			}
		}
	}
	return false
}

// slugify approximates GitHub's heading-anchor rule: lowercase, spaces to
// hyphens, punctuation dropped (hyphens and underscores kept).
func slugify(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_':
			b.WriteRune(r)
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r > 127: // keep non-ASCII letters (GitHub does)
			b.WriteRune(r)
		}
	}
	return b.String()
}
