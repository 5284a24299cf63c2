// Command mutate builds a mutation kill matrix: it applies one small fault
// at a time to the non-test files of a package and records which tests
// catch it.
//
//	go run ./scripts/mutate ./internal/core ./internal/analysis/...
//
// The arguments are package patterns inside the scope the matrix covers:
// internal/analysis/..., internal/core, internal/admission and
// internal/journal. The working tree is copied with `git archive` (of `git
// stash create`, so staged and unstaged edits to tracked files are in it;
// stage new files first) into a temporary directory, and each mutant is
// written there, run and reverted; the working tree is never touched.
//
// The operators:
//
//	cmp       flip < and <=, > and >=, == and !=
//	lit+1     add 1 to an integer literal, or to a loop bound (the
//	lit-1     right operand of a for condition's comparison); subtract 1
//	bound+1
//	bound-1
//	assign    delete an assignment statement (=, +=, …; not :=)
//	incdec    delete an increment or decrement (not a for loop's post
//	          statement, whose loss only hangs the loop)
//	errcheck  delete an `if … { return err }` check
//	branch    swap break and continue
//
// A mutant that does not build is skipped. Every other one runs
//
//	go test -count=1 -short -json -timeout 120s TARGETS
//
// where TARGETS are the mutated package, the in-scope packages that import
// it (or whose tests do), internal/analysis/crosstest and the root
// package. A mutant is killed when any test fails; the failing top-level
// tests are its killers ("timeout" when the run hit its timeout). One line
// per mutant goes to stdout:
//
//	FILE:LINE:COL <tab> OP <tab> killed|survived <tab> KILLERS
//
// and a "# PKG mutants=… run=… built=… killed=… survived=… wall=…" line
// closes each package. MUTATE_SAMPLE=N runs a seeded sample of N mutants per
// package instead of all of them, stratified by operator.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scope lists the package patterns the matrix covers.
var scope = []string{"./internal/analysis/...", "./internal/core", "./internal/admission", "./internal/journal"}

// crosstest and root are test targets of every mutant.
const (
	crosstest = "mcsched/internal/analysis/crosstest"
	root      = "mcsched"
)

// site is one mutation point of a parsed file: apply rewrites the AST in
// place.
type site struct {
	pos   token.Pos
	op    string
	apply func()
}

// sites lists the mutation points of f in a deterministic walk order, so the
// i-th site of two parses of the same source is the same mutant.
func sites(f *ast.File) []site {
	var out []site
	stmtList := func(list *[]ast.Stmt) {
		for i, st := range *list {
			drop := func() { *list = slices.Delete(slices.Clone(*list), i, i+1) }
			switch st := st.(type) {
			case *ast.AssignStmt:
				if st.Tok != token.DEFINE {
					out = append(out, site{st.Pos(), "assign", drop})
				}
			case *ast.IncDecStmt:
				out = append(out, site{st.Pos(), "incdec", drop})
			case *ast.IfStmt:
				if returnsErr(st) {
					out = append(out, site{st.Pos(), "errcheck", drop})
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			return n.Tok != token.IMPORT // import paths are not literals to bump
		case *ast.BlockStmt:
			stmtList(&n.List)
		case *ast.CaseClause:
			stmtList(&n.Body)
		case *ast.CommClause:
			stmtList(&n.Body)
		case *ast.BinaryExpr:
			if flip, ok := flips[n.Op]; ok {
				out = append(out, site{n.OpPos, "cmp", func() { n.Op = flip }})
			}
		case *ast.BasicLit:
			if v, err := strconv.ParseInt(n.Value, 0, 64); err == nil && n.Kind == token.INT {
				for _, d := range []int64{1, -1} {
					out = append(out, site{n.Pos(), fmt.Sprintf("lit%+d", d), func() { n.Value = strconv.FormatInt(v+d, 10) }})
				}
			}
		case *ast.ForStmt:
			if c, ok := n.Cond.(*ast.BinaryExpr); ok && flips[c.Op] != 0 {
				if _, lit := c.Y.(*ast.BasicLit); !lit {
					y := c.Y
					for _, d := range []struct {
						op   token.Token
						name string
					}{{token.ADD, "bound+1"}, {token.SUB, "bound-1"}} {
						out = append(out, site{y.Pos(), d.name, func() {
							c.Y = &ast.BinaryExpr{X: &ast.ParenExpr{X: y}, Op: d.op, Y: &ast.BasicLit{Kind: token.INT, Value: "1"}}
						}})
					}
				}
			}
		case *ast.BranchStmt:
			if swap, ok := map[token.Token]token.Token{token.BREAK: token.CONTINUE, token.CONTINUE: token.BREAK}[n.Tok]; ok {
				out = append(out, site{n.Pos(), "branch", func() { n.Tok = swap }})
			}
		}
		return true
	})
	return out
}

var flips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

// returnsErr reports whether st is `if … { return …, err }` with no else:
// its body is one return whose last result is an error variable or a
// freshly made error.
func returnsErr(st *ast.IfStmt) bool {
	if st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	ret, ok := st.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	switch last := ret.Results[len(ret.Results)-1].(type) {
	case *ast.Ident:
		return last.Name == "err" || strings.HasPrefix(last.Name, "Err")
	case *ast.CallExpr:
		if sel, ok := last.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok {
				return pkg.Name == "fmt" && sel.Sel.Name == "Errorf" || pkg.Name == "errors" && sel.Sel.Name == "New"
			}
		}
	}
	return false
}

// mutant is site i of file, printed.
type mutant struct {
	file string // path relative to the copy's root
	i    int
	pos  string
	op   string
}

// mutants lists every mutant of the non-test Go files in dir.
func mutants(dir, rel string) ([]mutant, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var out []mutant
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		file := filepath.Join(rel, filepath.Base(path))
		for i, s := range sites(f) {
			p := fset.Position(s.pos)
			out = append(out, mutant{file, i, fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column), s.op})
		}
	}
	return out, nil
}

// render returns src with its i-th site applied.
func render(src []byte, i int) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	ss := sites(f)
	if i >= len(ss) {
		return nil, fmt.Errorf("site %d of %d", i, len(ss))
	}
	ss[i].apply()
	var b bytes.Buffer
	if err := (&printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}).Fprint(&b, fset, f); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sample keeps n of ms, seeded, with each operator's share of the sample
// its share of ms (at least one of each).
func sample(ms []mutant, n int) []mutant {
	if n <= 0 || n >= len(ms) {
		return ms
	}
	byOp := map[string][]mutant{}
	var ops []string
	for _, m := range ms {
		if byOp[m.op] == nil {
			ops = append(ops, m.op)
		}
		byOp[m.op] = append(byOp[m.op], m)
	}
	rng := rand.New(rand.NewSource(2017))
	var out []mutant
	for _, op := range ops {
		group := byOp[op]
		rng.Shuffle(len(group), func(a, b int) { group[a], group[b] = group[b], group[a] })
		out = append(out, group[:min(len(group), max(1, n*len(group)/len(ms)))]...)
	}
	slices.SortFunc(out, func(a, b mutant) int { return cmp.Or(strings.Compare(a.file, b.file), a.i-b.i) })
	return out
}

// pkgInfo is the part of `go list -json` the matrix needs.
type pkgInfo struct {
	ImportPath   string
	Dir          string
	Deps         []string
	TestImports  []string
	XTestImports []string
}

func list(dir string, patterns ...string) ([]pkgInfo, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w", patterns, err)
	}
	var pkgs []pkgInfo
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkgInfo
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// targets lists the test targets of a mutant of pkg.
func targets(pkg string, inScope []pkgInfo) []string {
	out := []string{pkg}
	for _, p := range inScope {
		if p.ImportPath != pkg && (slices.Contains(p.Deps, pkg) ||
			slices.Contains(p.TestImports, pkg) || slices.Contains(p.XTestImports, pkg)) {
			out = append(out, p.ImportPath)
		}
	}
	for _, t := range []string{crosstest, root} {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// killers runs the targets and returns the failing top-level tests, as
// "pkg.Test" or "pkg [package]", or "timeout" when a test binary hit its
// timeout: the run is then cut short, since the verdict cannot change.
func killers(dir string, targets []string) ([]string, error) {
	args := append([]string{"test", "-count=1", "-short", "-json", "-timeout", "120s"}, targets...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	failed := map[string]bool{}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		short := strings.TrimPrefix(ev.Package, root+"/internal/")
		switch {
		case strings.HasPrefix(ev.Output, "panic: test timed out"):
			// The group's other binaries may still run; their results
			// cannot change the verdict, and the group may be gone already.
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			_ = cmd.Wait()
			return []string{"timeout"}, nil
		case ev.Action == "fail" && ev.Test != "" && !strings.Contains(ev.Test, "/"):
			failed[short+"."+ev.Test] = true
		case ev.Action == "fail" && ev.Test == "":
			failed[short+" [package]"] = true
		}
	}
	_ = cmd.Wait() // a run with a failing test exits nonzero; the events say why
	var names []string
	for n := range failed {
		names = append(names, n)
	}
	slices.Sort(names)
	// A package that failed is explained by its failing tests, if any.
	return slices.DeleteFunc(names, func(n string) bool {
		pkg, ok := strings.CutSuffix(n, " [package]")
		return ok && slices.ContainsFunc(names, func(m string) bool { return strings.HasPrefix(m, pkg+".") })
	}), nil
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: go run ./scripts/mutate PACKAGE...")
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("not in a git checkout: %w", err)
	}
	repo := strings.TrimSpace(string(top))
	tree, err := exec.Command("git", "-C", repo, "stash", "create").Output()
	if err != nil {
		return err
	}
	rev := strings.TrimSpace(string(tree))
	if rev == "" {
		rev = "HEAD"
	}
	dir, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive := exec.Command("sh", "-c", `git -C "$1" archive "$2" | tar -x -C "$3"`, "sh", repo, rev, dir)
	archive.Stderr = os.Stderr
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}

	inScope, err := list(dir, scope...)
	if err != nil {
		return err
	}
	chosen, err := list(dir, args...)
	if err != nil {
		return err
	}
	n := 0
	if v := os.Getenv("MUTATE_SAMPLE"); v != "" {
		if n, err = strconv.Atoi(v); err != nil || n <= 0 {
			return fmt.Errorf("MUTATE_SAMPLE=%q is not a positive count", v)
		}
	}
	for _, p := range chosen {
		if !slices.ContainsFunc(inScope, func(q pkgInfo) bool { return q.ImportPath == p.ImportPath }) {
			return fmt.Errorf("%s is outside the matrix's scope %v", p.ImportPath, scope)
		}
		rel, _ := filepath.Rel(dir, p.Dir)
		ms, err := mutants(p.Dir, rel)
		if err != nil {
			return err
		}
		start, built, killed, picked := time.Now(), 0, 0, sample(ms, n)
		for _, m := range picked {
			path := filepath.Join(dir, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			src, err := render(orig, m.i)
			if err != nil {
				return fmt.Errorf("%s: %w", m.pos, err)
			}
			if err := os.WriteFile(path, src, 0o644); err != nil {
				return err
			}
			build := exec.Command("go", "build", "./"+rel)
			build.Dir = dir
			if build.Run() == nil {
				built++
				ks, err := killers(dir, targets(p.ImportPath, inScope))
				if err != nil {
					return err
				}
				verdict := "survived"
				if len(ks) > 0 {
					verdict = "killed"
					killed++
				}
				fmt.Printf("%s\t%s\t%s\t%s\n", m.pos, m.op, verdict, strings.Join(ks, " "))
			}
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("# %s mutants=%d run=%d built=%d killed=%d survived=%d wall=%s\n",
			p.ImportPath, len(ms), len(picked), built, killed, built-killed, time.Since(start).Round(time.Second))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}
