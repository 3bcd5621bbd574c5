package main

// The three workloads. Each is a seeded data set plus a seeded sequence
// of rounds; a run repeats whole rounds until its time is up.

import (
	"fmt"
	"math/rand"
	"strings"
)

// spec is one workload instance, generated from a seed.
type spec struct {
	rels   []relation
	nfacts int
	// warm holds one query of every class the workload issues.
	warm []*op
	// readRound returns the r-th round of the timed read loop; nil for
	// cluster-writes, whose timed loop is writeRound.
	readRound func(r int) []*op
	// writeRound returns the r-th round of writes with their
	// read-your-write queries.
	writeRound func(r int) []*op
	// writeRounds is how many write rounds the recovery cluster runs: at
	// least 13 (104 writes), so write metrics taken from them have ten
	// samples beyond p90.
	writeRounds int
}

var workloads = map[string]func(seed int64) *spec{
	"point-100k":       point100k,
	"paper-recursions": paperRecursions,
	"cluster-writes":   clusterWrites,
}

// point100k: 255 trees of 40 people (~106k facts). Every answer cone is
// one tree, so evaluation is cheap and the time lands in work that
// scales with the whole EDB.
func point100k(seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	f := newForest(rng, 255, 3, 3, 3)
	// Writes copy-on-write a 106k-fact catalog while the collector marks
	// two such clusters, so their p50 needs twice the samples.
	sp := &spec{rels: f.rels, nfacts: f.nfacts, writeRounds: 26}
	leaf := func(rng *rand.Rand) string {
		t := f.leaves[rng.Intn(len(f.leaves))]
		return t[rng.Intn(len(t))]
	}
	short := func(rng *rand.Rand) []int64 { return randInts(rng, 2+rng.Intn(3), 100) }
	sp.warm = []*op{f.sgOp(leaf(rng)), f.scsgOp(leaf(rng)), appendOp(short(rng), short(rng)), sortOp("qsort", short(rng))}
	round := []weighted{
		{10, func(rng *rand.Rand) *op { return f.sgOp(leaf(rng)) }},
		{4, func(rng *rand.Rand) *op { return f.scsgOp(leaf(rng)) }},
		{3, func(rng *rand.Rand) *op { return appendOp(short(rng), short(rng)) }},
		{2, func(rng *rand.Rand) *op { return sortOp("qsort", short(rng)) }},
	}
	sp.readRound = func(r int) []*op { return draw(roundRand(seed, r), round) }
	sp.writeRound = newWriter(f, seed, 4).round
	return sp
}

// paperRecursions: the paper's examples at sizes where evaluation, not
// planning, dominates (a few thousand facts).
func paperRecursions(seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	f := newForest(rng, 1, 6, 2, 2)
	br := newBridge(60, 6)
	fl := newFlights(rng, 5, 8, 3, 300)
	al := newAlternating(rng, 6, 12, 3)
	// Writes here take well under a millisecond, so their p90 rests on
	// scheduling and GC jitter: three times the rounds keep it steady.
	sp := &spec{writeRounds: 39}
	for _, rs := range [][]relation{f.rels, br.rels, fl.rels, al.rels} {
		sp.rels = append(sp.rels, rs...)
	}
	sp.nfacts = f.nfacts + br.nfacts + fl.nfacts + al.nfacts
	leaf := func(rng *rand.Rand) string { return f.leaves[0][rng.Intn(len(f.leaves[0]))] }
	round := []weighted{
		{1, func(rng *rand.Rand) *op { return f.sgOp(leaf(rng)) }},
		{1, func(rng *rand.Rand) *op { return f.scsgOp(leaf(rng)) }},
		{1, func(*rand.Rand) *op { return br.r2Op("a0") }},
		{1, func(rng *rand.Rand) *op { return fl.travelOp(cityName(0, rng.Intn(8)), 600) }},
		{1, func(rng *rand.Rand) *op { return appendOp(randInts(rng, 150, 1000), randInts(rng, 150, 1000)) }},
		{1, func(rng *rand.Rand) *op { return sortOp("isort", randInts(rng, 30, 1000)) }},
		{1, func(rng *rand.Rand) *op { return sortOp("qsort", randInts(rng, 40, 1000)) }},
		{1, func(rng *rand.Rand) *op { return al.reachOp(nodeName(0, rng.Intn(12))) }},
	}
	for _, c := range round {
		sp.warm = append(sp.warm, c.gen(rng))
	}
	sp.readRound = func(r int) []*op { return draw(roundRand(seed, r), round) }
	sp.writeRound = newWriter(f, seed, 4).round
	return sp
}

// clusterWrites: 51 trees (~21k facts); the timed loop is write rounds,
// so every read plans on a generation published moments before.
func clusterWrites(seed int64) *spec {
	rng := rand.New(rand.NewSource(seed))
	f := newForest(rng, 51, 3, 3, 3)
	sp := &spec{rels: f.rels, nfacts: f.nfacts, writeRounds: 13}
	sp.writeRound = newWriter(f, seed, 1).round
	sp.warm = []*op{f.sgOp(f.leaves[0][0]), appendOp([]int64{1, 2}, []int64{3}), sortOp("qsort", []int64{3, 1, 2})}
	return sp
}

// weighted is a query class drawn n times per read round.
type weighted struct {
	n   int
	gen func(rng *rand.Rand) *op
}

// draw builds one read round: every class its weight's worth of
// queries, in shuffled order.
func draw(rng *rand.Rand, classes []weighted) []*op {
	var ops []*op
	for _, c := range classes {
		for i := 0; i < c.n; i++ {
			ops = append(ops, c.gen(rng))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// roundRand seeds round r's choices from the run seed alone, so a round
// is the same however many rounds came before it.
func roundRand(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

// writer generates write rounds: each write adds two new children below
// a random youngest-generation person, through LoadFacts or (one write
// in eight) through Exec source text with their sibling facts. A read of
// the just-written person follows every readEvery-th write; an append
// and a qsort call follow the last write, so they too plan on a fresh
// generation.
type writer struct {
	f         *forest
	seed      int64
	readEvery int
	next      int // rounds generated so far; rounds must be drawn in order
}

const writesPerRound = 8

func newWriter(f *forest, seed int64, readEvery int) *writer {
	return &writer{f: f, seed: seed, readEvery: readEvery}
}

func (w *writer) round(r int) []*op {
	if r != w.next {
		panic(fmt.Sprintf("write round %d drawn after %d: the model grows in order", r, w.next))
	}
	w.next++
	rng := roundRand(w.seed^0x5eed, r)
	var ops []*op
	for i := 1; i <= writesPerRound; i++ {
		t := w.f.leaves[rng.Intn(len(w.f.leaves))]
		p := t[rng.Intn(len(t))]
		kids := []string{fmt.Sprintf("w%d_%d_0", r, i), fmt.Sprintf("w%d_%d_1", r, i)}
		o := &op{class: classWrite, pred: "parent"}
		for _, k := range kids {
			w.f.addChild(k, p)
			o.tuples = append(o.tuples, pair(k, p))
		}
		o.nfacts = len(kids)
		if i == 5 {
			w.f.addSiblings(kids)
			var b strings.Builder
			for _, k := range kids {
				fmt.Fprintf(&b, "parent(%s, %s).\n", k, p)
			}
			fmt.Fprintf(&b, "sibling(%s, %s).\nsibling(%s, %s).\n", kids[0], kids[1], kids[1], kids[0])
			o.src, o.nfacts = b.String(), len(kids)+2
		}
		ops = append(ops, o)
		if i%w.readEvery == 0 {
			o.reads = w.f.sgOp(kids[1])
			ops = append(ops, o.reads)
		}
	}
	ops = append(ops,
		appendOp(randInts(rng, 3, 100), randInts(rng, 2, 100)),
		sortOp("qsort", randInts(rng, 5, 100)))
	return ops
}
