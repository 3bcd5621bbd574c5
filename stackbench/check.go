package main

// Operations and their independent answer checks. Each query's expected
// answer set is computed here from the generators' plain-Go models —
// a memoized walk for the recursions, a DFS for travel, slice
// concatenation and sort for the list programs — following the
// bottom-up semantics of the rules, never by asking the engine.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	cs "chainsplit"
)

// op is one operation of a workload: a query with its expected answer
// rows, or a write (LoadFacts of tuples, or Exec of src when set).
type op struct {
	class string
	query string
	vars  []string
	want  []string

	pred   string
	tuples [][]cs.Term
	src    string
	nfacts int
	// reads is the query that observes this write (read-your-write).
	reads *op
}

func (o *op) isWrite() bool { return o.class == classWrite }

const classWrite = "write"

// rows renders a result's answers as sorted strings over o.vars.
func rows(res *cs.Result, vars []string) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := r[v]; ok && t != nil {
				parts[i] = t.String()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// check compares a result's rows against the expected rows.
func (o *op) check(res *cs.Result) error {
	return sameRows(rows(res, o.vars), o.want)
}

func sameRows(got, want []string) error {
	if slices.Equal(got, want) {
		return nil
	}
	for _, w := range want {
		if _, found := slices.BinarySearch(got, w); !found {
			return fmt.Errorf("%d rows, want %d: missing %s", len(got), len(want), w)
		}
	}
	for _, g := range got {
		if _, found := slices.BinarySearch(want, g); !found {
			return fmt.Errorf("%d rows, want %d: unexpected %s", len(got), len(want), g)
		}
	}
	return fmt.Errorf("%d rows, want %d (duplicates)", len(got), len(want))
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sgSet: sg(X, Y) holds when X and Y are siblings, or when their
// parents are sg-related.
func (f *forest) sgSet(x string, memo map[string]map[string]bool) map[string]bool {
	if s, ok := memo[x]; ok {
		return s
	}
	s := map[string]bool{}
	memo[x] = s
	for _, y := range f.siblings[x] {
		s[y] = true
	}
	for _, p := range f.parents[x] {
		for y1 := range f.sgSet(p, memo) {
			for _, y := range f.children[y1] {
				s[y] = true
			}
		}
	}
	return s
}

// scsgSet: as sgSet, but the parents must also share a country.
func (f *forest) scsgSet(x string, memo map[string]map[string]bool) map[string]bool {
	if s, ok := memo[x]; ok {
		return s
	}
	s := map[string]bool{}
	memo[x] = s
	for _, y := range f.siblings[x] {
		s[y] = true
	}
	for _, p := range f.parents[x] {
		for y1 := range f.scsgSet(p, memo) {
			if !f.sameCountry(p, y1) {
				continue
			}
			for _, y := range f.children[y1] {
				s[y] = true
			}
		}
	}
	return s
}

func (f *forest) sgOp(x string) *op {
	return &op{class: "sg", query: fmt.Sprintf("?- sg(%s, Y).", x), vars: []string{"Y"},
		want: sortedSet(f.sgSet(x, map[string]map[string]bool{}))}
}

func (f *forest) scsgOp(x string) *op {
	return &op{class: "scsg", query: fmt.Sprintf("?- scsg(%s, Y).", x), vars: []string{"Y"},
		want: sortedSet(f.scsgSet(x, map[string]map[string]bool{}))}
}

// r2Set: r2(X, Y) holds by base, or when X steps up to X1, Y steps down
// to Y1, bridge(X1, Y1) holds and r2(X1, Y1) holds.
func (b *bridge) r2Set(x string, memo map[string]map[string]bool) map[string]bool {
	if s, ok := memo[x]; ok {
		return s
	}
	s := map[string]bool{}
	memo[x] = s
	for _, y := range b.base[x] {
		s[y] = true
	}
	for _, x1 := range b.up[x] {
		for y1 := range b.r2Set(x1, memo) {
			if !b.bridgeTo[x1][y1] {
				continue
			}
			for _, y := range b.downInv[y1] {
				s[y] = true
			}
		}
	}
	return s
}

func (b *bridge) r2Op(x string) *op {
	return &op{class: "bridge", query: fmt.Sprintf("?- r2(%s, Y).", x), vars: []string{"Y"},
		want: sortedSet(b.r2Set(x, map[string]map[string]bool{}))}
}

// travelRows enumerates every route from dep by DFS, pruning on the
// running fare (fares are positive), and renders L|DT|A|AT|F rows.
func (fl *flights) travelRows(dep string, maxFare int) []string {
	var out []string
	var walk func(city string, route []int64, dt, fare int)
	walk = func(city string, route []int64, dt, fare int) {
		for _, f := range fl.from[city] {
			total := fare + f.fare
			if total > maxFare {
				continue
			}
			r := append(slices.Clone(route), int64(f.fno))
			d := dt
			if len(route) == 0 {
				d = f.dt
			}
			out = append(out, fmt.Sprintf("%s|%d|%s|%d|%d", cs.IntList(r...), d, f.arr, f.at, total))
			walk(f.arr, r, d, total)
		}
	}
	walk(dep, nil, 0, 0)
	sort.Strings(out)
	return out
}

func (fl *flights) travelOp(dep string, maxFare int) *op {
	return &op{class: "travel",
		query: fmt.Sprintf("?- travel(L, %s, DT, A, AT, F), F =< %d.", dep, maxFare),
		vars:  []string{"L", "DT", "A", "AT", "F"}, want: fl.travelRows(dep, maxFare)}
}

// reachSet: reachA follows an a-edge and then reachB (or stops);
// reachB likewise with b-edges.
func (al *alternating) reachSet(x string, useA bool, memo map[string]map[string]bool) map[string]bool {
	key := "b:" + x
	edges := al.b
	if useA {
		key, edges = "a:"+x, al.a
	}
	if s, ok := memo[key]; ok {
		return s
	}
	s := map[string]bool{}
	memo[key] = s
	for _, z := range edges[x] {
		s[z] = true
		for y := range al.reachSet(z, !useA, memo) {
			s[y] = true
		}
	}
	return s
}

func (al *alternating) reachOp(x string) *op {
	return &op{class: "alternating", query: fmt.Sprintf("?- reachA(%s, Y).", x), vars: []string{"Y"},
		want: sortedSet(al.reachSet(x, true, map[string]map[string]bool{}))}
}

func appendOp(a, b []int64) *op {
	return &op{class: "append",
		query: fmt.Sprintf("?- append(%s, %s, W).", cs.IntList(a...), cs.IntList(b...)),
		vars:  []string{"W"}, want: []string{cs.IntList(append(slices.Clone(a), b...)...).String()}}
}

// sortOp builds an isort or qsort call; both keep duplicates.
func sortOp(pred string, xs []int64) *op {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return &op{class: pred, query: fmt.Sprintf("?- %s(%s, W).", pred, cs.IntList(xs...)),
		vars: []string{"W"}, want: []string{cs.IntList(sorted...).String()}}
}
