package main

import (
	"context"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// skewJoin is the engine-bound workload: IdealJoin, AssocJoin and a
// materialized aggregate over AssocJoin on the paper's skewed join pair.
var skewJoin = &facadeWorkload{
	budget: skewBudget,
	// The storage probe runs the two joins. The spilled aggregate is left
	// out: under a grant of a few MiB its sorted runs exhaust 20000 file
	// descriptors.
	storageStmts: []int{0, 1},
	create: func(db *dbs3.Database, _ int64) error {
		return db.CreateJoinPair("", skewACard, skewBCard, skewDegree, skewTheta)
	},
	base: func(int64) (core.DB, lera.MapResolver, error) {
		return joinPairBase(skewACard, skewBCard, skewDegree, skewTheta)
	},
	specs: func(rels core.DB) []stmtSpec {
		ideal := stmtSpec{
			name:  "ideal",
			sql:   "SELECT A.id, B.id FROM A JOIN B ON A.k = B.k WHERE B.id < ?",
			reads: []string{"A", "B"},
			args:  skewArgs,
		}
		assoc := stmtSpec{
			name:  "assoc",
			sql:   "SELECT A.id, Br.id FROM A JOIN Br ON A.k = Br.k WHERE Br.id < ?",
			reads: []string{"A", "Br"},
			args:  skewArgs,
		}
		agg := stmtSpec{
			name:        "assoc-agg",
			sql:         "SELECT Br.id, COUNT(*) FROM A JOIN Br ON A.k = Br.k WHERE Br.id < ? GROUP BY Br.id",
			materialize: true,
			reads:       []string{"A", "Br"},
			args:        skewArgs,
		}
		bOf := bIDByKey(rels["B"])
		for _, a := range skewArgs {
			bound := a[0]
			var pairs digest
			counts := make(map[int64]int64)
			eachTuple(rels["A"], func(t relation.Tuple) {
				if b := bOf[t[0].AsInt()]; b < bound {
					pairs.addInts(t[1].AsInt(), b)
					counts[b]++
				}
			})
			var groups digest
			for b, n := range counts {
				groups.addInts(b, n)
			}
			ideal.want = append(ideal.want, pairs)
			assoc.want = append(assoc.want, pairs)
			agg.want = append(agg.want, groups)
		}
		return []stmtSpec{ideal, assoc, agg}
	},
}

func runSkewJoin(ctx context.Context, cfg runConfig) (*report, error) { return skewJoin.run(ctx, cfg) }

// joinPairBase generates the relations CreateJoinPair provisions, for the
// oracle and the traced replay.
func joinPairBase(a, b, degree int, theta float64) (core.DB, lera.MapResolver, error) {
	jdb, err := workload.NewJoinDB(a, b, degree, theta)
	if err != nil {
		return nil, nil, err
	}
	return core.DB{"A": jdb.A, "B": jdb.B, "Br": jdb.Br}, jdb.Resolver(), nil
}

// bIDByKey maps each join key of B (k, id, pad) to the id of the one B
// tuple holding it.
func bIDByKey(b *partition.Partitioned) map[int64]int64 {
	out := make(map[int64]int64, b.Cardinality())
	eachTuple(b, func(t relation.Tuple) { out[t[0].AsInt()] = t[1].AsInt() })
	return out
}

func eachTuple(p *partition.Partitioned, f func(relation.Tuple)) {
	for _, frag := range p.Fragments {
		for _, t := range frag {
			f(t)
		}
	}
}
