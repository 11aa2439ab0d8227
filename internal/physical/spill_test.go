package physical

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestPgldSpillLoopbackTCP is the distributed half of the spill acceptance
// check: a closure whose per-worker accumulators are forced far under half
// their working set runs Pgld over real loopback TCP sockets, completes by
// spilling (worker gauges record the events), matches the unbudgeted
// result set, and leaves no spill files behind.
func TestPgldSpillLoopbackTCP(t *testing.T) {
	edges := core.NewRelation(core.ColSrc, core.ColTrg)
	const n = 80
	for i := 0; i < n-1; i++ {
		edges.Add([]core.Value{core.Value(i), core.Value(i + 1)})
	}
	env := core.NewEnv()
	env.Bind("E", edges)
	term := core.ClosureLR("X", &core.Var{Name: "E"})

	// Reference: unbudgeted centralized evaluation.
	want, err := core.Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	// Working set per worker is roughly resultRows/workers × AccRowBytes;
	// pick a budget far below half of it so spilling is certain.
	workers := 3
	perWorker := int64(want.Len()) / int64(workers) * core.AccRowBytes(2)
	budget := perWorker / 4
	if budget < 256 {
		budget = 256
	}

	spillDir := t.TempDir()
	c, err := cluster.New(cluster.Config{
		Workers:      workers,
		Transport:    cluster.TransportTCP,
		TaskMemBytes: budget,
		SpillDir:     spillDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := planner(t, c, env)
	p.Force = Gld
	got, rep, err := p.Execute(term)
	if err != nil {
		t.Fatal(err)
	}
	if !core.SameRows(got, want) {
		t.Fatalf("budgeted Pgld differs from unbudgeted run: %d vs %d rows", got.Len(), want.Len())
	}
	if len(rep.Fixpoints) != 1 || rep.Fixpoints[0].Kind != Gld {
		t.Fatalf("unexpected report: %+v", rep.Fixpoints)
	}
	var spills, spilledBytes int64
	for _, g := range c.Gauges() {
		spills += g.Spills()
		spilledBytes += g.SpilledBytes()
	}
	if spills == 0 || spilledBytes == 0 {
		t.Fatalf("no spilling under budget %d bytes (spills=%d bytes=%d)", budget, spills, spilledBytes)
	}
	matches, err := filepath.Glob(filepath.Join(spillDir, core.SpillFilePattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 0 {
		t.Fatalf("leftover spill files: %v", matches)
	}
}

// spillMaps counts this process's memory mappings of spill files under
// dir, through /proc/self/maps (0 where that is unavailable).
func spillMaps(dir string) int {
	maps, _ := os.ReadFile("/proc/self/maps")
	return strings.Count(string(maps), " "+dir+string(filepath.Separator))
}

// TestAllPlansUnderStarvedBudget runs every physical plan with a tiny
// per-task budget and with an ample one, and checks the result sets still
// match the unbudgeted reference — the spill paths of Ps_plw and Ppg_plw
// (the same local loop) and Pgld ride the same governance. The starved
// run must complete by spilling and the ample one must not spill at all.
// A finished query must also have released its worker budget and unmapped
// its spill runs before the cluster is closed: nothing it built stays
// charged or mapped on a worker.
func TestAllPlansUnderStarvedBudget(t *testing.T) {
	edges := core.NewRelation(core.ColSrc, core.ColTrg)
	for i := 0; i < 60; i++ {
		edges.Add([]core.Value{core.Value(i % 20), core.Value((i*13 + 1) % 20)})
	}
	env := core.NewEnv()
	env.Bind("E", edges)
	term := core.ClosureLR("X", &core.Var{Name: "E"})
	want, err := core.Eval(term, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1 << 10, 1 << 30} {
		for _, kind := range []Kind{Gld, Splw, Pgplw} {
			spillDir := t.TempDir()
			c, err := cluster.New(cluster.Config{
				Workers:      2,
				TaskMemBytes: budget,
				SpillDir:     spillDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := planner(t, c, env)
			p.Force = kind
			got, _, err := p.Execute(term)
			if err != nil {
				c.Close()
				t.Fatalf("%s, budget %d: %v", kind, budget, err)
			}
			if !core.SameRows(got, want) {
				c.Close()
				t.Fatalf("%s, budget %d: %d rows, want %d", kind, budget, got.Len(), want.Len())
			}
			var spills int64
			for w, g := range c.Gauges() {
				if used := g.Used(); used != 0 {
					c.Close()
					t.Fatalf("%s, budget %d: worker %d gauge holds %d bytes after the query", kind, budget, w, used)
				}
				spills += g.Spills()
			}
			if n := spillMaps(spillDir); n != 0 {
				c.Close()
				t.Fatalf("%s, budget %d: %d spill mappings survive the query", kind, budget, n)
			}
			c.Close()
			if starved := budget == 1<<10; starved != (spills > 0) {
				t.Fatalf("%s, budget %d: %d spills, want spilling only under the starved budget", kind, budget, spills)
			}
			if matches, _ := filepath.Glob(filepath.Join(spillDir, core.SpillFilePattern)); len(matches) > 0 {
				t.Fatalf("%s, budget %d: left spill files: %v", kind, budget, matches)
			}
		}
	}
}
