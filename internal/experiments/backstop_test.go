package experiments

import (
	"fmt"
	"os"
	"testing"

	"mcsched/internal/analysis/dbf"
)

// TestMain fails the package if any QPA walk its tests ran — the figure goldens
// among them — gave up at the iteration backstop. The backstop is per walk
// and the engines' walks resume where the oracle's (package oracle) start
// over, so it is the one place the two may decide differently (see package
// kernel);
// the pinned corpora must never reach it.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := dbf.Backstops(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d QPA walks hit the iteration backstop\n", n)
		code = 1
	}
	os.Exit(code)
}
