package operator

// Hot-path microbenchmarks for the allocation-free join/aggregate keys.
// The *StringKey benchmarks freeze the pre-change probe path — projected
// tuple + canonical string per probed/grouped tuple — as the measuring
// stick for the allocs/op reduction archived in BENCH_core.json; they are
// baselines, not live code. The live side measures one tuple per
// operation: the join benches call the scalar probe (the triggered and
// nested-loop path), the aggregate bench feeds OnBatch one-tuple runs.

import (
	"fmt"
	"testing"

	"dbs3/internal/lera"
	"dbs3/internal/relation"
)

// benchFragment builds a (k, id, pad) fragment with nKeys distinct keys.
func benchFragment(n, nKeys int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.NewTuple(
			relation.Int(int64(i%nKeys)),
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("pad-%d", i%7)),
		)
	}
	return out
}

func benchmarkJoinProbe(b *testing.B, algo lera.JoinAlgo) {
	j := &Join{Algo: algo, BuildKey: []int{0}, ProbeKey: []int{0}}
	ctx := &Context{Instance: 0, Build: benchFragment(10_000, 10_000)}
	if err := j.Setup(ctx); err != nil {
		b.Fatal(err)
	}
	probes := benchFragment(1024, 10_000)
	matched := 0
	emit := func(relation.Tuple) { matched++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.probe(ctx, probes[i%len(probes)], emit)
	}
	if matched == 0 {
		b.Fatal("probe never matched")
	}
}

func BenchmarkJoinProbeHashKey(b *testing.B)      { benchmarkJoinProbe(b, lera.HashJoin) }
func BenchmarkJoinProbeTempIndexKey(b *testing.B) { benchmarkJoinProbe(b, lera.TempIndex) }

// stringKeyOf is the pre-change key rendering: project the key columns into
// a fresh tuple and render it as a canonical string.
func stringKeyOf(t relation.Tuple, cols []int) string {
	return t.Project(cols).Key()
}

// BenchmarkJoinProbeStringKey replays the old HashJoin probe byte-for-byte:
// a string-keyed map probed with a per-tuple projected, rendered key.
func BenchmarkJoinProbeStringKey(b *testing.B) {
	buildKey := []int{0}
	probeKey := []int{0}
	build := benchFragment(10_000, 10_000)
	hash := make(map[string][]relation.Tuple, len(build))
	for _, t := range build {
		k := stringKeyOf(t, buildKey)
		hash[k] = append(hash[k], t)
	}
	probes := benchFragment(1024, 10_000)
	matched := 0
	emit := func(relation.Tuple) { matched++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := probes[i%len(probes)]
		for _, bt := range hash[stringKeyOf(t, probeKey)] {
			emit(bt.Concat(t))
		}
	}
	if matched == 0 {
		b.Fatal("probe never matched")
	}
}

func BenchmarkAggregateTupleHashKey(b *testing.B) {
	a := &Aggregate{GroupBy: []int{0}, Kind: lera.AggSum, AggCol: 1}
	ctx := &Context{Instance: 0}
	if err := a.Setup(ctx); err != nil {
		b.Fatal(err)
	}
	tuples := benchFragment(1024, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tuples)
		if err := a.OnBatch(ctx, tuples[k:k+1], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateTupleStringKey replays the old group lookup: string map
// key rendered per tuple.
func BenchmarkAggregateTupleStringKey(b *testing.B) {
	groupBy := []int{0}
	type aggAcc struct {
		group relation.Tuple
		sum   int64
	}
	groups := make(map[string]*aggAcc)
	tuples := benchFragment(1024, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuples[i%len(tuples)]
		key := stringKeyOf(t, groupBy)
		st, ok := groups[key]
		if !ok {
			st = &aggAcc{group: t.Project(groupBy)}
			groups[key] = st
		}
		st.sum += t[1].AsInt()
	}
}
