package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	cs "chainsplit"
)

// classOps returns one operation of every query class the workloads
// issue, on small instances of the generators, with an in-memory
// database holding the same facts.
func classOps(t *testing.T) (*cs.DB, []*op) {
	t.Helper()
	rng := roundRand(7, 0)
	f := newForest(rng, 3, 4, 2, 2)
	br := newBridge(5, 6)
	fl := newFlights(rng, 4, 5, 2, 300)
	al := newAlternating(rng, 5, 6, 2)
	db := cs.Open()
	t.Cleanup(func() { db.Close() })
	if err := db.Exec(rules); err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]relation{f.rels, br.rels, fl.rels, al.rels} {
		for _, rel := range rs {
			if err := db.LoadFacts(rel.pred, rel.tuples); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := []*op{
		f.sgOp(f.leaves[1][3]), f.scsgOp(f.leaves[2][5]), br.r2Op("a0"),
		fl.travelOp(cityName(0, 1), 400), al.reachOp(nodeName(0, 2)),
		appendOp([]int64{3, 1}, []int64{2, 2}), sortOp("isort", []int64{5, 1, 4, 1}),
		sortOp("qsort", []int64{9, 2, 7, 2, 0}),
	}
	// Reads of written people follow their writes.
	w := newWriter(f, 7, 4)
	for _, o := range w.round(0) {
		if !o.isWrite() {
			ops = append(ops, o)
			continue
		}
		var err error
		if o.src != "" {
			err = db.Exec(o.src)
		} else {
			err = db.LoadFacts(o.pred, o.tuples)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, ops
}

// TestCheckersMatchEngine: every independent checker agrees with the
// engine on correct answers, and rejects the answer set with one row
// dropped and with one row added.
func TestCheckersMatchEngine(t *testing.T) {
	db, ops := classOps(t)
	seen := map[string]bool{}
	for _, o := range ops {
		res, err := db.Query(o.query)
		if err != nil {
			t.Fatalf("%s: %v", o.query, err)
		}
		if err := o.check(res); err != nil {
			t.Fatalf("%s: correct answers rejected: %v", o.query, err)
		}
		got := rows(res, o.vars)
		if len(got) == 0 {
			t.Fatalf("%s: no answers; the check would be vacuous", o.query)
		}
		if sameRows(got[1:], o.want) == nil {
			t.Errorf("%s: accepted with a row dropped", o.query)
		}
		added := append(slices.Clone(got), "zz_extra")
		if sameRows(added, o.want) == nil {
			t.Errorf("%s: accepted with a row added", o.query)
		}
		seen[o.class] = true
	}
	for _, c := range []string{"sg", "scsg", "bridge", "travel", "alternating", "append", "isort", "qsort"} {
		if !seen[c] {
			t.Errorf("class %s not covered", c)
		}
	}
}

// TestImportsPublicAPIOnly keeps the benchmark on the public API, so a
// change that reshapes internal packages is measured without editing it.
func TestImportsPublicAPIOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			first, _, _ := strings.Cut(path, "/")
			if path != "chainsplit" && strings.Contains(first, ".") || strings.HasPrefix(path, "chainsplit/") {
				t.Errorf("%s imports %s: only package chainsplit and the standard library are allowed", file, path)
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	r := &runner{}
	compare := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, r.endToEnd())
	compare("per_layer", spec.PerLayer, newLayers().metrics())
}

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
