package rewrite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/termgen"
)

// exploreRandomTerm explores the random term of seed when core.Schema
// certifies it, failing t if the rewriter discards any rule output or
// composed candidate on the way: from a certified root every sound rule
// application must yield a certified plan. It reports whether the root
// was certified.
func exploreRandomTerm(t *testing.T, seed int64) bool {
	t.Helper()
	env := verifyEnv()
	term := termgen.Root(seed)
	if _, err := core.Schema(term, env); err != nil {
		return false
	}
	rw := NewRewriter(env)
	rw.MaxPlans = 48
	rw.Explore(term)
	if rw.AuditViolations != 0 || rw.DroppedIllFormed != 0 {
		t.Fatalf("seed %d: discarded %d rule outputs and %d candidates from %s; last: %v",
			seed, rw.AuditViolations, rw.DroppedIllFormed, term, rw.LastAudit)
	}
	return true
}

// FuzzVerifyExplore explores the plan space of random certified roots,
// wired into the CI fuzz smoke next to the parser targets.
func FuzzVerifyExplore(f *testing.F) {
	for _, seed := range termgen.Corpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		exploreRandomTerm(t, seed)
	})
}

// TestExploreCertifiedSweep runs the fuzz property over a fixed seed
// range, so plain go test covers far more roots than the corpus.
func TestExploreCertifiedSweep(t *testing.T) {
	certified := 0
	for seed := int64(0); seed < 60000; seed++ {
		if exploreRandomTerm(t, seed) {
			certified++
		}
	}
	if certified < 20000 {
		t.Fatalf("only %d of 60000 random roots certified; the generator degenerated", certified)
	}
}
