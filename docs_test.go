package mcsched

// Documentation health checks, run as part of the normal test suite: every
// intra-repo markdown link must resolve to a file that exists, so
// ARCHITECTURE.md, README.md and docs/ cannot silently rot as the tree
// moves.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links are rare in this repo and intentionally unchecked.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every .md file of the repository and verifies
// that each relative link target exists. External (scheme-qualified) links
// and pure in-page anchors are skipped: CI must not depend on the network,
// and anchor slugs are renderer-specific.
func TestMarkdownLinks(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; is the test running from the repo root?")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an in-page anchor from a file link.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %q): %v", file, m[1], resolved, err)
			}
		}
	}
}

var (
	// goTestCmd matches one `go test` invocation up to the end of its
	// (continuation-joined) line or the next shell operator.
	goTestCmd = regexp.MustCompile(`go test\b[^\n&|;']*(?:'[^'\n]*'[^\n&|;']*)*`)
	// runFlag and benchFlag capture a -run or -bench pattern, quoted or bare.
	runFlag   = regexp.MustCompile(`\s-run\s+(?:'([^']*)'|(\S+))`)
	benchFlag = regexp.MustCompile(`\s-bench\s+(?:'([^']*)'|(\S+))`)
	// testDecl matches the functions `go test -run` and `-bench` select among.
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)
	// fuzzEntry matches one `{ target: FuzzX, pkg: ./dir/ }` matrix entry.
	fuzzEntry = regexp.MustCompile(`\{\s*target:\s*(\w+),\s*pkg:\s*([^\s}]+)\s*\}`)
	// yamlComment and shellContinuation are stripped before commands are
	// looked for: a comment may quote a command, a command may span lines.
	yamlComment       = regexp.MustCompile(`(?m)^\s*#.*$`)
	shellContinuation = regexp.MustCompile(`\\\n\s*`)
)

// TestWorkflowRunPatternsMatch guards the CI workflows against test
// selections that select nothing: go test exits 0 when a -run or -bench
// pattern matches no test or benchmark, and -fuzz fails only when run, so a
// renamed or retired one silently turns its CI step into a no-op. Every
// alternative of every -run pattern must match a test function, and the
// top level of every -bench alternative a benchmark function, declared in
// at least one of the packages its command names; every { target, pkg }
// entry of a fuzz matrix must name a Fuzz function declared in pkg.
func TestWorkflowRunPatternsMatch(t *testing.T) {
	// decls maps a package directory to the test functions it declares.
	decls := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || path == filepath.Join("cmd", "mcload")) {
			return filepath.SkipDir // cmd/mcload is its own module, outside ./...
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			decls[filepath.Dir(path)] = append(decls[filepath.Dir(path)], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	workflows, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no workflows found (%v); is the test running from the repo root?", err)
	}
	checked := map[string]int{}
	for _, file := range workflows {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := shellContinuation.ReplaceAllString(yamlComment.ReplaceAllString(string(data), ""), "")
		for _, m := range fuzzEntry.FindAllStringSubmatch(text, -1) {
			checked["fuzz"]++
			if !strings.HasPrefix(m[1], "Fuzz") || !slices.Contains(decls[filepath.Clean(m[2])], m[1]) {
				t.Errorf("%s: fuzz target %s is not a Fuzz function declared in %s", file, m[1], m[2])
			}
		}
		for _, cmd := range goTestCmd.FindAllString(text, -1) {
			var dirs []string
			for _, arg := range strings.Fields(cmd) {
				if arg != "." && !strings.HasPrefix(arg, "./") {
					continue // not a package argument
				}
				root, recursive := strings.CutSuffix(arg, "...")
				root = filepath.Clean(root)
				for dir := range decls {
					if dir == root || recursive && (root == "." || strings.HasPrefix(dir, root+string(filepath.Separator))) {
						dirs = append(dirs, dir)
					}
				}
			}
			for _, sel := range []struct {
				flag string
				re   *regexp.Regexp
			}{{"-run", runFlag}, {"-bench", benchFlag}} {
				m := sel.re.FindStringSubmatch(cmd)
				if m == nil || m[1]+m[2] == "^$" {
					continue // no selection, or a benchmark/fuzz-only run
				}
				for _, alt := range strings.Split(m[1]+m[2], "|") {
					if sel.flag == "-bench" {
						alt, _, _ = strings.Cut(alt, "/") // the top level names the function
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: %s alternative %q in %q: %v", file, sel.flag, alt, cmd, err)
						continue
					}
					checked[sel.flag]++
					matched := false
					for _, dir := range dirs {
						for _, name := range decls[dir] {
							isBench := strings.HasPrefix(name, "Benchmark")
							matched = matched || isBench == (sel.flag == "-bench") && re.MatchString(name)
						}
					}
					if !matched {
						t.Errorf("%s: %s alternative %q matches nothing in the packages of %q", file, sel.flag, alt, cmd)
					}
				}
			}
		}
	}
	// What is left to scan: nightly's 14 fuzz targets and ci.yml's -bench.
	if checked["fuzz"] < 14 || checked["-bench"] < 1 {
		t.Errorf("only %d fuzz targets and %d -bench alternatives found in %v; the workflow scan is broken",
			checked["fuzz"], checked["-bench"], workflows)
	}
}
