// Package graphgen generates the datasets of the Dist-µ-RA evaluation
// (§V-B) at laptop scale, deterministically from a seed:
//
//   - rnd_n_p        Erdős-Rényi random graphs (optionally edge-labeled),
//   - tree_n         random recursive trees,
//   - uniprot_n      gMark-style protein graphs with the Uniprot predicate
//     schema (interacts, encodes, occurs, hasKeyword,
//     reference, authoredBy, publishes),
//   - Yago(scale)    a synthetic knowledge graph carrying the Yago
//     predicate vocabulary and named entities used by the
//     paper's queries Q1–Q25,
//   - SGGraph(name)  topology stand-ins for the real graphs of Fig. 11
//     (trees, genealogies, social networks).
//
// Real Yago/SNAP data cannot ship with this reproduction; the generators
// preserve what the experiments depend on — predicate vocabulary,
// heavy-tailed degree distributions, hierarchy depths and reachability —
// as README "Benchmarks and CI" states for the scale substitution.
package graphgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Graph is a labeled directed graph stored as a triple relation
// (src, pred, trg) with all identifiers interned in Dict.
//
// Mutation (Add/AddV/Delete/DeleteV/ReadTSVInto) is serialized under one
// lock, so concurrent writers are safe with each other — and with the
// snapshot APIs (Generation, PredGens, DeltasSince), which observe every
// insertion and removal atomically with its generation bumps. Mutation
// must still not race with readers scanning Triples directly (query
// execution): the generation counters only tell caches *that* the graph
// changed, not that changing it concurrently with a query is safe.
// Deletion swap-removes inside Triples, so it additionally invalidates
// outstanding row views the way any insertion already could.
type Graph struct {
	Name    string
	Dict    *core.Dict
	Triples *core.Relation

	// id is the graph's process-unique serial (assigned by NewGraph) and
	// gen counts mutations: every inserted triple bumps it. Together they
	// let anything derived from the graph's statistics (cost-selected
	// plans, prepared statements) validate itself with two atomic loads —
	// without retaining a pointer to the graph it was derived from. See
	// ID and Generation.
	id  uint64
	gen atomic.Uint64

	// predGens refines gen per predicate: a write to `follows` should not
	// invalidate plans or cached sub-results that only read `cites`.
	// Readers (plan and sub-result caches) snapshot the generations of the
	// predicates a term touches and revalidate element-wise. Guarded by
	// predMu because Value keys arrive from the dictionary, not a dense
	// range; the global gen stays the coarse wildcard fallback.
	//
	// predLog is the per-predicate change log: predLog[p][k] records the
	// mutation that advanced predGens[p] from k to k+1 — the (src, trg)
	// endpoints by value plus whether the edge was inserted or removed.
	// Entries store values, not Triples row indexes: deletion swap-removes
	// rows, so an index recorded at mutation time would not survive later
	// deletes. The log slice and the generation counter grow in lockstep
	// (one entry per genuinely effective mutation), giving DeltasSince an
	// exact generations→mutations correspondence for delta-seeded refresh
	// and DRed retraction maintenance of cached results.
	predMu   sync.RWMutex
	predGens map[core.Value]uint64
	predLog  map[core.Value][]predLogEntry

	// si/pi/ti locate src/pred/trg in the sorted triple schema and rowBuf
	// is the reused insertion scratch: AddV assembles each triple in place
	// and the relation copies it into its flat backing array, so loading
	// never allocates a row slice per triple.
	si, pi, ti int
	rowBuf     [3]core.Value
}

// predLogEntry is one change-log record: the mutated edge's endpoints (the
// predicate is the log's map key) and its direction.
type predLogEntry struct {
	src, trg core.Value
	removed  bool
}

// Generation returns the mutation counter: it changes whenever a triple is
// inserted or removed. Plan caches key their entries by it and treat any
// change as an invalidation (the paper's §IV cost-based plan choice is
// deterministic per (query, graph statistics), so an unchanged generation
// makes a cached plan safe to reuse).
func (g *Graph) Generation() uint64 {
	g.predMu.RLock()
	defer g.predMu.RUnlock()
	return g.gen.Load()
}

// nextGraphID issues process-unique graph serials.
var nextGraphID atomic.Uint64

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	triples := core.NewRelation(core.ColSrc, core.ColPred, core.ColTrg)
	return &Graph{
		Name:    name,
		Dict:    core.NewDict(),
		Triples: triples,
		id:      nextGraphID.Add(1),
		si:      core.ColIndex(triples.Cols(), core.ColSrc),
		pi:      core.ColIndex(triples.Cols(), core.ColPred),
		ti:      core.ColIndex(triples.Cols(), core.ColTrg),
	}
}

// ID returns the graph's process-unique serial: two distinct Graph
// objects never share one, so (ID, Generation) identifies a graph state
// without holding the graph alive.
func (g *Graph) ID() uint64 { return g.id }

// Edges returns the number of triples.
func (g *Graph) Edges() int { return g.Triples.Len() }

// Add inserts a triple given as strings, interning identifiers.
func (g *Graph) Add(src, pred, trg string) {
	g.AddV(g.Dict.Intern(src), g.Dict.Intern(pred), g.Dict.Intern(trg))
}

// AddV inserts a triple of already-interned values. Inserting a triple
// that is already present is a no-op: the relation rejects the duplicate
// and no generation advances, so caches derived from the graph stay valid.
//
// Ordering contract: the row append, the change-log append, the
// per-predicate generation bump and the global generation bump happen in
// one critical section under predMu. A snapshot taken through Generation,
// PredGens or DeltasSince therefore never observes a row without its
// generation bumps, nor a bump without its row — if it did, a cache entry
// published just after a write could validate its footprint against data
// it never saw. (Scanning Triples concurrently with a mutation remains
// unsynchronized; see the type comment.)
func (g *Graph) AddV(src, pred, trg core.Value) {
	g.predMu.Lock()
	g.rowBuf[g.si] = src
	g.rowBuf[g.pi] = pred
	g.rowBuf[g.ti] = trg
	if g.Triples.Add(g.rowBuf[:]) {
		g.logLocked(pred, predLogEntry{src: src, trg: trg})
	}
	g.predMu.Unlock()
}

// logLocked appends one change-log entry and bumps both generation
// counters — the single place the log and the counters advance, so they
// cannot fall out of lockstep. Called with predMu held.
func (g *Graph) logLocked(pred core.Value, ent predLogEntry) {
	if g.predGens == nil {
		g.predGens = make(map[core.Value]uint64)
		g.predLog = make(map[core.Value][]predLogEntry)
	}
	g.predLog[pred] = append(g.predLog[pred], ent)
	g.predGens[pred]++
	g.gen.Add(1)
}

// Delete removes a triple given as strings, returning whether it was
// present. Identifiers are looked up, never interned: deleting an edge
// whose endpoints the graph has never seen is a full no-op.
func (g *Graph) Delete(src, pred, trg string) bool {
	s, ok := g.Dict.Lookup(src)
	if !ok {
		return false
	}
	p, ok := g.Dict.Lookup(pred)
	if !ok {
		return false
	}
	t, ok := g.Dict.Lookup(trg)
	if !ok {
		return false
	}
	return g.DeleteV(s, p, t)
}

// DeleteV removes a triple of already-interned values, returning whether
// it was present (removing an absent triple is a no-op and advances no
// generation). The row is swap-removed from Triples, the removal is
// recorded in the per-predicate change log, and both generation counters
// bump — all in the one critical section AddV uses, so snapshots never
// observe a removal without its bumps or vice versa.
func (g *Graph) DeleteV(src, pred, trg core.Value) bool {
	g.predMu.Lock()
	g.rowBuf[g.si] = src
	g.rowBuf[g.pi] = pred
	g.rowBuf[g.ti] = trg
	ok := g.Triples.Remove(g.rowBuf[:])
	if ok {
		g.logLocked(pred, predLogEntry{src: src, trg: trg, removed: true})
	}
	g.predMu.Unlock()
	return ok
}

// PredGen returns the mutation counter of one predicate: it changes
// whenever a triple with that predicate is inserted, and stays put when
// other predicates mutate — the fine-grained sibling of Generation.
func (g *Graph) PredGen(pred core.Value) uint64 {
	g.predMu.RLock()
	defer g.predMu.RUnlock()
	return g.predGens[pred]
}

// PredGens returns the mutation counters of the given predicates, aligned
// with preds, under one lock acquisition.
func (g *Graph) PredGens(preds []core.Value) []uint64 {
	out := make([]uint64, len(preds))
	g.predMu.RLock()
	for i, p := range preds {
		out[i] = g.predGens[p]
	}
	g.predMu.RUnlock()
	return out
}

// DeltasSince returns the net change to the given predicates since the
// per-predicate generations gens (as previously snapshotted by PredGens,
// aligned with preds), together with those predicates' current
// generations: added holds the triples now present that were not at the
// snapshot, removed holds the triples present at the snapshot that are
// gone now. The log is replayed in mutation order, so an edge inserted
// and deleted inside the window (or vice versa) cancels out and appears
// in neither delta. Everything is read in one critical section with any
// concurrent AddV/DeleteV, so added and removed are exactly the net
// mutations that advance gens to cur. The results share the graph's
// triple schema and interned values.
//
// ok is false when the correspondence cannot be established: gens is
// misaligned with preds, or records a generation ahead of this graph's
// (a snapshot taken from a different graph object). Callers then fall
// back to treating the derived artifact as fully stale.
func (g *Graph) DeltasSince(preds []core.Value, gens []uint64) (added, removed *core.Relation, cur []uint64, ok bool) {
	if len(gens) != len(preds) {
		return nil, nil, nil, false
	}
	added = core.NewRelation(g.Triples.Cols()...)
	removed = core.NewRelation(g.Triples.Cols()...)
	cur = make([]uint64, len(preds))
	var row [3]core.Value
	g.predMu.RLock()
	defer g.predMu.RUnlock()
	for i, p := range preds {
		n := g.predGens[p]
		cur[i] = n
		if gens[i] > n {
			return nil, nil, nil, false
		}
		row[g.pi] = p
		for _, ent := range g.predLog[p][gens[i]:n] {
			row[g.si], row[g.ti] = ent.src, ent.trg
			if ent.removed {
				if !added.Remove(row[:]) {
					removed.Add(row[:])
				}
			} else {
				if !removed.Remove(row[:]) {
					added.Add(row[:])
				}
			}
		}
	}
	return added, removed, cur, true
}

// Binary extracts the (src, trg) relation of one predicate.
func (g *Graph) Binary(pred string) *core.Relation {
	out := core.NewRelation(core.ColSrc, core.ColTrg)
	p, ok := g.Dict.Lookup(pred)
	if !ok {
		return out
	}
	var pair [2]core.Value
	srcFirst := core.ColIndex(out.Cols(), core.ColSrc) == 0
	for i := 0; i < g.Triples.Len(); i++ {
		row := g.Triples.RowAt(i)
		if row[g.pi] == p {
			if srcFirst {
				pair[0], pair[1] = row[g.si], row[g.ti]
			} else {
				pair[0], pair[1] = row[g.ti], row[g.si]
			}
			out.Add(pair[:])
		}
	}
	return out
}

// PredCounts returns the number of edges per predicate name.
func (g *Graph) PredCounts() map[string]int {
	out := map[string]int{}
	for i := 0; i < g.Triples.Len(); i++ {
		out[g.Dict.String(g.Triples.RowAt(i)[g.pi])]++
	}
	return out
}

// Env returns a core.Env binding the triple relation under the given name.
func (g *Graph) Env(rel string) *core.Env {
	env := core.NewEnv()
	env.Bind(rel, g.Triples)
	return env
}

// WriteTSV writes "src<TAB>pred<TAB>trg" lines using the dictionary.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < g.Triples.Len(); i++ {
		row := g.Triples.RowAt(i)
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
			g.Dict.String(row[g.si]), g.Dict.String(row[g.pi]), g.Dict.String(row[g.ti])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses a graph written by WriteTSV (or any 3-column TSV).
func ReadTSV(r io.Reader, name string) (*Graph, error) {
	g := NewGraph(name)
	if err := g.ReadTSVInto(r); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadTSVInto parses "src<TAB>pred<TAB>trg" lines into an existing graph,
// merging with whatever triples it already holds (identifiers are interned
// in the graph's own dictionary; duplicate triples are no-ops). The load
// is atomic: the whole input is validated before the first insertion, so
// a parse error leaves the graph untouched.
func (g *Graph) ReadTSVInto(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	var triples [][3]string
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return fmt.Errorf("graphgen: line %d: want 3 tab-separated fields, got %d", line, len(parts))
		}
		triples = append(triples, [3]string{parts[0], parts[1], parts[2]})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, tr := range triples {
		g.Add(tr[0], tr[1], tr[2])
	}
	return nil
}

// node builds a dense node name.
func node(prefix string, i int) string { return prefix + fmt.Sprint(i) }

// ErdosRenyi generates rnd_n_p: each of the n·(n−1) ordered pairs is an
// edge with probability p, labeled uniformly from labels (a single label
// "e" when labels is empty). Geometric skip sampling keeps generation
// linear in the number of edges.
func ErdosRenyi(n int, p float64, labels []string, seed int64) *Graph {
	g := NewGraph(fmt.Sprintf("rnd_%d_%g", n, p))
	if len(labels) == 0 {
		labels = []string{"e"}
	}
	lab := make([]core.Value, len(labels))
	for i, l := range labels {
		lab[i] = g.Dict.Intern(l)
	}
	nodes := make([]core.Value, n)
	for i := range nodes {
		nodes[i] = g.Dict.Intern(node("n", i))
	}
	if p <= 0 || n < 2 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	total := int64(n) * int64(n-1)
	idx := int64(-1)
	for {
		// Skip ~Geometric(p) pairs.
		skip := int64(1)
		if p < 1 {
			u := rng.Float64()
			skip = 1 + int64(logf(1-u)/logf(1-p))
		}
		idx += skip
		if idx >= total {
			break
		}
		s := int(idx / int64(n-1))
		t := int(idx % int64(n-1))
		if t >= s {
			t++ // skip self-loops
		}
		g.AddV(nodes[s], lab[rng.Intn(len(lab))], nodes[t])
	}
	return g
}

func logf(x float64) float64 {
	// Tiny wrapper so the sampling formula reads clearly.
	if x <= 0 {
		return -1e300
	}
	return math.Log(x)
}

// RandomTree generates tree_n: node i+1 is attached as a child of a
// uniformly random node among 0..i (§V-B).
func RandomTree(n int, labels []string, seed int64) *Graph {
	g := NewGraph(fmt.Sprintf("tree_%d", n))
	if len(labels) == 0 {
		labels = []string{"e"}
	}
	lab := make([]core.Value, len(labels))
	for i, l := range labels {
		lab[i] = g.Dict.Intern(l)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]core.Value, n)
	for i := range nodes {
		nodes[i] = g.Dict.Intern(node("n", i))
	}
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		g.AddV(nodes[parent], lab[rng.Intn(len(lab))], nodes[i])
	}
	return g
}

// zipfTarget draws an index in [0,n) with a heavy-tailed preference for
// small indices (exponent ≈ 1.5), giving the hub-dominated degree
// distributions of real knowledge graphs.
func zipfTarget(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	idx := int(math.Pow(float64(n), u)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
