package main

import (
	"fmt"
	"testing"

	cs "chainsplit"
)

// BenchmarkPointQuerySweep is the EDB-size reference for the point-100k
// generator: an sg point query, whose answer cone is one 40-person tree,
// on in-memory databases of about 1k, 10k and 100k facts.
//
//	go test -run '^$' -bench PointQuerySweep -benchtime 20x
func BenchmarkPointQuerySweep(b *testing.B) {
	for _, trees := range []int{3, 26, 255} {
		f := newForest(roundRand(1, 0), trees, 3, 3, 3)
		b.Run(fmt.Sprintf("facts=%d", f.nfacts), func(b *testing.B) {
			db := cs.Open()
			defer db.Close()
			if err := db.Exec(rules); err != nil {
				b.Fatal(err)
			}
			for _, rel := range f.rels {
				if err := db.LoadFacts(rel.pred, rel.tuples); err != nil {
					b.Fatal(err)
				}
			}
			o := f.sgOp(f.leaves[trees/2][13])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(o.query)
				if err != nil {
					b.Fatal(err)
				}
				if err := o.check(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
