package cinder

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every tracked markdown file and verifies
// that each relative link resolves to a file in the repository. The CI
// docs job runs this, so a renamed document or a typoed path breaks
// the build instead of rotting silently. External links (with a URL
// scheme) and pure anchors are skipped — the check is about repo
// integrity, not the internet.
func TestMarkdownLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("found only %d markdown files; the walk looks broken: %v", len(mdFiles), mdFiles)
	}

	for _, md := range mdFiles {
		if filepath.Base(md) == "SNIPPETS.md" {
			// SNIPPETS.md quotes exemplar code from external repositories;
			// its "links" are paths inside those repos, not this one.
			continue
		}
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // in-document anchor
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[0], resolved)
			}
		}
	}
}

// TestReadmeCoversEntryPoints pins the README's promises: the
// quickstart commands and companion documents it names must exist.
func TestReadmeCoversEntryPoints(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	s := string(body)
	for _, want := range []string{
		"go test ./...",
		"cinder-sim -all",
		"ba500c48834931ae427013b72a47ea33", // the frozen artifact hash
		"cinder-fleet",
		"-checkpoint-dir",
		"-shard",
		"-merge",
		"DESIGN.md",
		"EXPERIMENTS.md",
		"CHANGES.md",
		"docs/fleet-report.md",
		"BENCH_week.json",
		"cinder-perfcheck",
		"-update-baseline",
		"docs/perf-harness.md",
		"bench/trend.ndjson",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
}

// fleetFlagDef matches a flag definition in cmd/cinder-fleet/main.go:
// flag.Bool("name", ...) or flag.TextVar(&v, "name", ...).
var fleetFlagDef = regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&\w+, )?"([a-z0-9-]+)"`)

// fleetFlagUse matches a -flag token on a cinder-fleet command line.
var fleetFlagUse = regexp.MustCompile("(?:^|[\\s`])-([a-z][a-z0-9-]*)")

// TestFleetFlagsInDocsExist: every -flag on a cinder-fleet command line
// in the README, docs/*.md and the verify skill must be a flag
// cmd/cinder-fleet/main.go defines, so a removed flag cannot linger in
// an example. A command line runs from "cinder-fleet " to the end of
// the line, through any backslash continuations.
func TestFleetFlagsInDocsExist(t *testing.T) {
	src, err := os.ReadFile("cmd/cinder-fleet/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range fleetFlagDef.FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	if len(defined) < 20 {
		t.Fatalf("found only %d cinder-fleet flag definitions; the pattern looks broken: %v", len(defined), defined)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	checked := 0
	for _, md := range docs {
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(body), "\n")
		for i := 0; i < len(lines); i++ {
			at := i + 1
			_, cmd, ok := strings.Cut(lines[i], "cinder-fleet ")
			if !ok {
				continue
			}
			for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
				i++
				cmd += " " + lines[i]
			}
			checked++
			for _, m := range fleetFlagUse.FindAllStringSubmatch(cmd, -1) {
				if !defined[m[1]] {
					t.Errorf("%s:%d: cinder-fleet flag -%s is not defined in cmd/cinder-fleet/main.go", md, at, m[1])
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("found only %d cinder-fleet command lines; the scan looks broken", checked)
	}
}
