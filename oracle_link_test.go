package mcsched

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestNoBinaryLinksOracle: package internal/oracle holds the stateless
// reference searches the analyses are checked against, and only tests may
// use it. No main package may link it — the module's own commands and
// examples, and the benchmark module in cmd/mcload — and no non-test file
// outside it may import it.
func TestNoBinaryLinksOracle(t *testing.T) {
	const oracle = "mcsched/internal/oracle"
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}

	deps := `{{if eq .Name "main"}}{{.ImportPath}} {{join .Deps " "}}{{end}}`
	var mains []string
	for _, line := range append(goList("-f", deps, "./..."), goList("-C", "cmd/mcload", "-f", deps, ".")...) {
		if f := strings.Fields(line); len(f) > 0 {
			mains = append(mains, f[0])
			if slices.Contains(f[1:], oracle) {
				t.Errorf("%s links %s", f[0], oracle)
			}
		}
	}
	if len(mains) < 10 {
		t.Fatalf("only %d main packages found: %v", len(mains), mains)
	}

	imports := `{{.ImportPath}} {{join .Imports " "}}`
	importers := 0
	for _, line := range goList("-f", imports, "./...") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] != oracle && slices.Contains(f[1:], oracle) {
			t.Errorf("non-test code of %s imports %s", f[0], oracle)
		}
	}
	testImports := `{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}`
	for _, line := range goList("-f", testImports, "./...") {
		if slices.Contains(strings.Fields(line), oracle) {
			importers++
		}
	}
	if importers == 0 {
		t.Fatalf("no test imports %s: the check above proves nothing", oracle)
	}
}
