package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/rpq"
	"repro/internal/ucrpq"
)

// edgeRel is the name the engine binds the triple relation to.
const edgeRel = "G"

// FNV-1a, inlined so that folding a rendered row allocates nothing inside
// the timed drain loop.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // field separator
}

// rowHash hashes one rendered row. The final mix spreads the bits so that
// the sum over a result's (distinct) rows is a usable set hash.
func rowHash(row []string) uint64 {
	h := uint64(fnvOffset)
	for _, s := range row {
		h = fnvString(h, s)
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// result identifies a query result independently of row order.
type result struct {
	Rows int    `json:"rows"`
	Hash string `json:"hash"`
}

func makeResult(rows int, sum uint64) result {
	return result{Rows: rows, Hash: fmt.Sprintf("%016x", sum)}
}

// oracle evaluates text with the materializing reference evaluator on the
// naive left-to-right translation — the route internal/testkit holds every
// other route to — and renders the rows the way Rows.Strings does.
func oracle(g *graphgen.Graph, text string) (result, error) {
	q, err := ucrpq.ParseUnion(text)
	if err != nil {
		return result{}, err
	}
	term, err := ucrpq.TranslateUnion(q, edgeRel, g.Dict, rpq.LeftToRight)
	if err != nil {
		return result{}, err
	}
	env := core.NewEnv()
	env.Bind(edgeRel, g.Triples)
	ref := core.NewEvaluator(env)
	defer ref.Close()
	ref.Materializing = true
	rel, err := ref.Eval(term)
	if err != nil {
		return result{}, err
	}
	var sum uint64
	row := make([]string, rel.Arity())
	for i := 0; i < rel.Len(); i++ {
		for j, v := range rel.RowAt(i) {
			row[j] = g.Dict.String(v)
		}
		sum += rowHash(row)
	}
	return makeResult(rel.Len(), sum), nil
}

// fingerprint pins a workload's inputs: the generated graph and the
// sequence of operations derived from the seed.
type fingerprint struct {
	Edges   int    `json:"edges"`
	Triples string `json:"triples"`
	Ops     string `json:"ops"`
}

// edge is a triple of the single-label graphs, as strings.
type edge struct{ src, trg string }

// triples lists g's edges in storage order.
func triples(g *graphgen.Graph) (out []edge, preds []string) {
	cols := g.Triples.Cols()
	si, pi, ti := core.ColIndex(cols, core.ColSrc), core.ColIndex(cols, core.ColPred), core.ColIndex(cols, core.ColTrg)
	for i := 0; i < g.Edges(); i++ {
		row := g.Triples.RowAt(i)
		out = append(out, edge{g.Dict.String(row[si]), g.Dict.String(row[ti])})
		preds = append(preds, g.Dict.String(row[pi]))
	}
	return out, preds
}

// fingerprintOf hashes the graph w generates for (sc, seed) and the first
// operations its clients would issue.
func fingerprintOf(w *workload, sc scale, seed int64) fingerprint {
	g := w.graph(sc, seed)
	edges, preds := triples(g)
	h := uint64(fnvOffset)
	for i, e := range edges {
		h = fnvString(fnvString(fnvString(h, e.src), preds[i]), e.trg)
	}
	fp := fingerprint{Edges: len(edges), Triples: fmt.Sprintf("%016x", h)}

	h = fnvOffset
	if w.op == nil {
		// live-mutate: the first 32 mutation batches.
		m := newMutator(edges, sc.mutateN, seed)
		for c := 0; c < 32; c++ {
			for _, mu := range m.next() {
				h = fnvString(fnvString(h, mu.src), mu.trg)
				if mu.del {
					h = fnvString(h, "-")
				}
			}
		}
	} else {
		op := w.op
		for _, c := range op {
			h = fnvString(fnvString(fnvString(h, c.id), c.text), c.plan.String())
		}
		if w.clients > 1 {
			// The first 64 orders each client issues the op's calls in.
			for c := 0; c < w.clients; c++ {
				rng := clientRNG(seed, c)
				for i := 0; i < 64; i++ {
					for _, k := range rng.Perm(len(op)) {
						h = fnvString(h, op[k].id)
					}
				}
			}
		}
	}
	fp.Ops = fmt.Sprintf("%016x", h)
	return fp
}

// clientRNG seeds the draw sequence of one closed-loop client.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

// pinned holds the seed-1 full-scale inputs and expected results. A graph
// generator that changed would otherwise move every baseline silently; the
// run fails on a fingerprint mismatch instead.
type pinned struct {
	Seed      int64                     `json:"seed"`
	Scale     string                    `json:"scale"`
	Workloads map[string]pinnedWorkload `json:"workloads"`
}

type pinnedWorkload struct {
	fingerprint
	Results map[string]result `json:"results,omitempty"`
}

//go:embed expected.json
var expectedJSON []byte

func loadPinned() (*pinned, error) {
	var p pinned
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &p, nil
}

// expectedFor returns the input fingerprint and the expected result per
// call id of w: the pinned ones when (sc, seed) is the pinned
// configuration — after checking that the inputs still match — and a
// freshly computed oracle otherwise. live-mutate has no static results;
// its runner checks every cycle against a cache-less engine.
func expectedFor(w *workload, sc scale, seed int64) (fp fingerprint, want map[string]result, oracleS float64, err error) {
	fp = fingerprintOf(w, sc, seed)
	pin, err := loadPinned()
	if err != nil {
		return fp, nil, 0, err
	}
	if pin.Seed == seed && pin.Scale == sc.name {
		pw, ok := pin.Workloads[w.name]
		if !ok {
			return fp, nil, 0, fmt.Errorf("expected.json has no entry for %s; run -write-expected", w.name)
		}
		if pw.fingerprint != fp {
			return fp, nil, 0, fmt.Errorf("input fingerprint of %s is %+v, pinned %+v: the generated inputs changed; "+
				"baselines measured on the old inputs no longer apply (re-pin with -write-expected)", w.name, fp, pw.fingerprint)
		}
		return fp, pw.Results, 0, nil
	}
	start := time.Now()
	want, err = computeExpected(w, sc, seed)
	return fp, want, time.Since(start).Seconds(), err
}

func computeExpected(w *workload, sc scale, seed int64) (map[string]result, error) {
	if w.op == nil {
		return nil, nil
	}
	g := w.graph(sc, seed)
	want := map[string]result{}
	for _, c := range w.op {
		if _, done := want[c.id]; done {
			continue
		}
		r, err := oracle(g, c.text)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", c.id, err)
		}
		want[c.id] = r
	}
	return want, nil
}

// writeExpected recomputes fingerprints and oracle results of every
// workload for seed 1 at full scale and writes them to path.
func writeExpected(path string) error {
	sc := scales["full"]
	pin := pinned{Seed: 1, Scale: sc.name, Workloads: map[string]pinnedWorkload{}}
	for _, w := range workloads {
		want, err := computeExpected(w, sc, pin.Seed)
		if err != nil {
			return err
		}
		pin.Workloads[w.name] = pinnedWorkload{fingerprint: fingerprintOf(w, sc, pin.Seed), Results: want}
	}
	out, err := json.MarshalIndent(pin, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
