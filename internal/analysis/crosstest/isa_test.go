package crosstest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches one line of compiler assembly output whose instruction is
// a fused multiply-add or -subtract, capturing its source file.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go):\d+\)\t(FN?M(?:ADD|SUB)[A-Z]*)\t`)

// TestNoFusedArithmetic: verdicts may not depend on the instruction set.
// The Go spec lets the compiler fuse x*y + z into one instruction unless an
// explicit float64(...) conversion rounds the product first, and the
// arm64, ppc64le and riscv64 back ends do fuse (amd64's never does), so an
// unrounded product in a verdict's arithmetic can decide a set one way on
// amd64 and the other way there. This cross-builds the analysis packages
// for those three and fails on any fused op whose source line is in this
// module.
func TestNoFusedArithmetic(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds the analysis packages for three instruction sets")
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(string(out)) + string(filepath.Separator)
	for _, arch := range []string{"arm64", "ppc64le", "riscv64"} {
		cmd := exec.Command("go", "build", "-gcflags=mcsched/...=-S", "mcsched/internal/analysis/...")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		asm, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s: %v\n%s", arch, err, asm)
		}
		lines := strings.Split(string(asm), "\n")
		if len(lines) < 1000 {
			t.Fatalf("GOARCH=%s: only %d lines of assembly; the check would prove nothing", arch, len(lines))
		}
		for _, line := range lines {
			if m := fusedOp.FindStringSubmatch(line); m != nil && strings.HasPrefix(m[1], module) {
				t.Errorf("GOARCH=%s fuses arithmetic: %s", arch, strings.TrimSpace(line))
			}
		}
	}
}
