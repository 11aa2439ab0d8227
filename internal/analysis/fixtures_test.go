package analysis_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/locksend"
)

// TestFixtures runs locksend over the seeded fixture module and checks
// its diagnostics against the want comments — in both directions: every
// seeded violation fires, every clean counterpart stays silent.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src"), []*analysis.Analyzer{locksend.Analyzer}, "fix/...")
}

// TestMuralintBinaryFlagsFixtures builds the real muralint binary and
// points it at the fixture module: it must exit 2 (diagnostics found)
// and report through locksend. This is the end-to-end proof behind the
// CI gate — the same binary exiting 0 on the main module is what keeps
// the repository invariant-clean.
func TestMuralintBinaryFlagsFixtures(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "muralint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/muralint")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build muralint: %v\n%s", err, out)
	}

	run := exec.Command(bin, "fix/...")
	run.Dir = filepath.Join("testdata", "src")
	out, err := run.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("muralint on seeded fixtures: err=%v, want exit status 2\noutput:\n%s", err, out)
	}
	if !strings.Contains(string(out), "locksend:") {
		t.Errorf("muralint output has no locksend diagnostics:\n%s", out)
	}
}
