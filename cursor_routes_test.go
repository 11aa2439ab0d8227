package distmura_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graphgen"
	"repro/internal/testkit"
)

// TestCursorRenamesEveryRoute runs the two shapes of the root rename chain
// through every differential route: `?x,?y <- ?x e+ ?y`, whose renames
// compose to the identity, so the cursor reads the fixpoint's rows
// untouched, and `?b,?a <- ?b e+ ?a`, a real permutation of the columns.
// Each must equal the materializing reference on every plan, read from
// the frames the workers ship, over channels and TCP, and under a starved
// budget whose accumulators ship from frozen runs.
func TestCursorRenamesEveryRoute(t *testing.T) {
	g := graphgen.ErdosRenyi(60, 3.0/60, []string{"e"}, 7)
	tg := &testkit.Graph{G: g, Labels: []string{"e"}}
	for _, opts := range []testkit.Options{
		{Workers: 3},
		{Workers: 3, Transport: cluster.TransportTCP},
		{Workers: 3, TaskMemBytes: 4 << 10, SpillDir: t.TempDir()},
	} {
		for _, q := range []string{"?x,?y <- ?x e+ ?y", "?b,?a <- ?b e+ ?a"} {
			t.Run(fmt.Sprintf("%s/transport=%d/budget=%d", q, opts.Transport, opts.TaskMemBytes), func(t *testing.T) {
				rep, err := testkit.RunCase(opts, tg, q)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ResultRows == 0 {
					t.Fatal("the closure is empty: the routes compared nothing")
				}
				if opts.TaskMemBytes > 0 && rep.Spills == 0 {
					t.Fatal("nothing spilled under the starved budget")
				}
			})
		}
	}
}
