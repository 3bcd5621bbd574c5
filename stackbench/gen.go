package main

// Input generators. Every generator is deterministic in its *rand.Rand,
// and each keeps its own plain-Go model of the facts it produced: the
// answer checks in check.go walk these models, never the engine.

import (
	"fmt"
	"math/rand"

	cs "chainsplit"
)

// relation is one extensional predicate's tuples, loaded with one
// LoadFacts call.
type relation struct {
	pred   string
	tuples [][]cs.Term
}

// forest is a set of family trees: parent/2, sibling/2 and
// same_country/2, where same_country holds between people of the same
// tree and generation who were born in the same country. People written
// later by the benchmark are added with addChild.
type forest struct {
	parents  map[string][]string
	children map[string][]string
	siblings map[string][]string
	// country, tree and gen place every generated person; written
	// people have no country, so same_country never holds for them.
	country map[string]int
	tree    map[string]int
	gen     map[string]int
	// leaves holds the youngest generated generation, per tree.
	leaves [][]string
	rels   []relation
	nfacts int
}

// newForest builds trees of generations+1 levels: one root per tree
// (its own sibling, so sg has a base case), fanout children per person,
// and countries drawn from [0, countries).
func newForest(rng *rand.Rand, trees, generations, fanout, countries int) *forest {
	f := &forest{
		parents:  map[string][]string{},
		children: map[string][]string{},
		siblings: map[string][]string{},
		country:  map[string]int{},
		tree:     map[string]int{},
		gen:      map[string]int{},
	}
	var parent, sibling, same [][]cs.Term
	for t := 0; t < trees; t++ {
		level := []string{fmt.Sprintf("t%d_g0_0", t)}
		root := level[0]
		f.place(root, t, 0, rng.Intn(countries))
		f.siblings[root] = []string{root}
		sibling = append(sibling, pair(root, root))
		levels := [][]string{level}
		for g := 1; g <= generations; g++ {
			var next []string
			for _, p := range level {
				var kids []string
				for k := 0; k < fanout; k++ {
					c := fmt.Sprintf("t%d_g%d_%d", t, g, len(next))
					next = append(next, c)
					kids = append(kids, c)
					f.place(c, t, g, rng.Intn(countries))
					f.link(c, p)
					parent = append(parent, pair(c, p))
				}
				for _, a := range kids {
					for _, b := range kids {
						if a != b {
							f.siblings[a] = append(f.siblings[a], b)
							sibling = append(sibling, pair(a, b))
						}
					}
				}
			}
			level = next
			levels = append(levels, level)
		}
		for _, lv := range levels {
			for _, a := range lv {
				for _, b := range lv {
					if f.country[a] == f.country[b] {
						same = append(same, pair(a, b))
					}
				}
			}
		}
		f.leaves = append(f.leaves, level)
	}
	f.rels = []relation{{"parent", parent}, {"sibling", sibling}, {"same_country", same}}
	f.nfacts = len(parent) + len(sibling) + len(same)
	return f
}

func (f *forest) place(p string, tree, gen, country int) {
	f.tree[p], f.gen[p], f.country[p] = tree, gen, country
}

func (f *forest) link(child, parent string) {
	f.parents[child] = append(f.parents[child], parent)
	f.children[parent] = append(f.children[parent], child)
}

// addChild records a written person below parent.
func (f *forest) addChild(child, parent string) {
	f.link(child, parent)
	f.tree[child] = f.tree[parent]
	f.gen[child] = f.gen[parent] + 1
}

// addSiblings records mutual sibling facts among people.
func (f *forest) addSiblings(people []string) {
	for _, a := range people {
		for _, b := range people {
			if a != b {
				f.siblings[a] = append(f.siblings[a], b)
			}
		}
	}
}

func (f *forest) sameCountry(a, b string) bool {
	ca, okA := f.country[a]
	cb, okB := f.country[b]
	return okA && okB && ca == cb && f.tree[a] == f.tree[b] && f.gen[a] == f.gen[b]
}

func pair(a, b string) []cs.Term { return []cs.Term{cs.Sym(a), cs.Sym(b)} }

// bridge is the expansion-ratio workload of Algorithm 3.1: an
// scsg-shaped recursion whose chain passes through a connection with
// join expansion ratio exactly `expansion`. up is a chain a0 → … → aD,
// down has `expansion` parallel chains b_i_j, bridge links a_i to every
// b_i_j and base closes the recursion at depth D.
type bridge struct {
	up       map[string][]string // X → X1
	downInv  map[string][]string // Y1 → Y with down(Y, Y1)
	bridgeTo map[string]map[string]bool
	base     map[string][]string
	rels     []relation
	nfacts   int
}

func newBridge(depth, expansion int) *bridge {
	b := &bridge{up: map[string][]string{}, downInv: map[string][]string{},
		bridgeTo: map[string]map[string]bool{}, base: map[string][]string{}}
	a := func(i int) string { return fmt.Sprintf("a%d", i) }
	bb := func(i, j int) string { return fmt.Sprintf("b%d_%d", i, j) }
	var up, down, br, base [][]cs.Term
	for i := 0; i < depth; i++ {
		up = append(up, pair(a(i), a(i+1)))
		b.up[a(i)] = append(b.up[a(i)], a(i+1))
		b.bridgeTo[a(i+1)] = map[string]bool{}
		for j := 0; j < expansion; j++ {
			down = append(down, pair(bb(i, j), bb(i+1, j)))
			b.downInv[bb(i+1, j)] = append(b.downInv[bb(i+1, j)], bb(i, j))
			br = append(br, pair(a(i+1), bb(i+1, j)))
			b.bridgeTo[a(i+1)][bb(i+1, j)] = true
		}
	}
	for j := 0; j < expansion; j++ {
		base = append(base, pair(a(depth), bb(depth, j)))
		b.base[a(depth)] = append(b.base[a(depth)], bb(depth, j))
	}
	b.rels = []relation{{"up", up}, {"down", down}, {"bridge", br}, {"base", base}}
	b.nfacts = len(up) + len(down) + len(br) + len(base)
	return b
}

// flight is one flight/6 fact.
type flight struct {
	fno, dt, at, fare int
	dep, arr          string
}

// flights is a layered (acyclic) flight network: every flight goes from
// layer i to layer i+1 and departs after the previous layer's arrivals,
// so every connection is feasible and only the fare bound limits the
// routes.
type flights struct {
	from   map[string][]flight
	rels   []relation
	nfacts int
}

func newFlights(rng *rand.Rand, layers, cities, outDegree, maxFare int) *flights {
	fl := &flights{from: map[string][]flight{}}
	var tuples [][]cs.Term
	fno := 0
	for l := 0; l < layers; l++ {
		for i := 0; i < cities; i++ {
			for d := 0; d < outDegree; d++ {
				fno++
				f := flight{fno: fno, dep: cityName(l, i), arr: cityName(l+1, rng.Intn(cities)),
					dt: l*100 + 60, at: l*100 + 140, fare: 10 + rng.Intn(maxFare-9)}
				fl.from[f.dep] = append(fl.from[f.dep], f)
				tuples = append(tuples, []cs.Term{cs.Int(int64(f.fno)), cs.Sym(f.dep), cs.Int(int64(f.dt)),
					cs.Sym(f.arr), cs.Int(int64(f.at)), cs.Int(int64(f.fare))})
			}
		}
	}
	fl.rels = []relation{{"flight", tuples}}
	fl.nfacts = len(tuples)
	return fl
}

func cityName(layer, idx int) string { return fmt.Sprintf("c%d_%d", layer, idx) }

// alternating is a layered graph whose even layers carry aEdge and odd
// layers bEdge facts, so reachability must alternate two mutually
// recursive predicates.
type alternating struct {
	a, b   map[string][]string
	rels   []relation
	nfacts int
}

func newAlternating(rng *rand.Rand, layers, width, outDegree int) *alternating {
	al := &alternating{a: map[string][]string{}, b: map[string][]string{}}
	var ea, eb [][]cs.Term
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			from := nodeName(l, i)
			for d := 0; d < outDegree; d++ {
				to := nodeName(l+1, rng.Intn(width))
				if l%2 == 0 {
					al.a[from] = append(al.a[from], to)
					ea = append(ea, pair(from, to))
				} else {
					al.b[from] = append(al.b[from], to)
					eb = append(eb, pair(from, to))
				}
			}
		}
	}
	al.rels = []relation{{"aEdge", ea}, {"bEdge", eb}}
	al.nfacts = len(ea) + len(eb)
	return al
}

func nodeName(layer, idx int) string { return fmt.Sprintf("m%d_%d", layer, idx) }

func randInts(rng *rand.Rand, n int, max int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max)
	}
	return out
}

// rules is the one program every workload loads: the paper's sg and
// scsg (Examples 1.1–1.2), the bridge recursion (Algorithm 3.1), travel
// (§3), append/isort/qsort (§1.2, §4) and alternating reachability.
const rules = `
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
sg(X, Y) :- sibling(X, Y).
scsg(X, Y) :- parent(X, X1), parent(Y, Y1), same_country(X1, Y1), scsg(X1, Y1).
scsg(X, Y) :- sibling(X, Y).
r2(X, Y) :- up(X, X1), down(Y, Y1), bridge(X1, Y1), r2(X1, Y1).
r2(X, Y) :- base(X, Y).
travel(L, D, DT, A, AT, F) :- flight(Fno, D, DT, A, AT, F), cons(Fno, [], L).
travel(L, D, DT, A, AT, F) :-
    flight(Fno, D, DT, A1, AT1, F1),
    travel(L1, A1, DT1, A, AT, F2),
    DT1 > AT1,
    plus(F1, F2, F),
    cons(Fno, L1, L).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
isort([X|Xs], Ys) :- isort(Xs, Zs), insert(X, Zs, Ys).
isort([], []).
insert(X, [], [X]).
insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
insert(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
qsort([X|Xs], Ys) :-
    partition(Xs, X, Littles, Bigs),
    qsort(Littles, Ls), qsort(Bigs, Bs),
    append(Ls, [X|Bs], Ys).
qsort([], []).
partition([X|Xs], Y, [X|Ls], Bs) :- X =< Y, partition(Xs, Y, Ls, Bs).
partition([X|Xs], Y, Ls, [X|Bs]) :- X > Y, partition(Xs, Y, Ls, Bs).
partition([], Y, [], []).
reachA(X, Y) :- aEdge(X, Y).
reachA(X, Y) :- aEdge(X, Z), reachB(Z, Y).
reachB(X, Y) :- bEdge(X, Y).
reachB(X, Y) :- bEdge(X, Z), reachA(Z, Y).
`
