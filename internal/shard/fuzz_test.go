package shard

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/sparse"
)

// Native fuzz target for the sharding layer. Seed corpora live in
// testdata/fuzz/FuzzShardRoundTrip/ (replayed by plain `go test`); CI runs
// the target for a bounded window. Run locally with:
//
//	go test -run='^$' -fuzz='^FuzzShardRoundTrip$' -fuzztime=30s ./internal/shard
//
// Inputs are raw bytes decoded into a small streamed spec plus a shard
// count, so the fuzzer explores plan/build/propagation structure rather than
// huge payloads. Two corpus files (seed-valid-plan, seed-bad-magic-tail) are
// the bytes of a plan wire format the package no longer has; they stay as
// inputs like any other.

// decodeShardInput derives a bounded stream spec and shard count from fuzz
// bytes: byte 0 sizes the graph, byte 1 the shard count, byte 2 the seed and
// homophily. Everything stays small enough for a full build per exec.
func decodeShardInput(data []byte) (datasets.StreamSpec, int) {
	var n, s, m byte
	if len(data) > 0 {
		n = data[0]
	}
	if len(data) > 1 {
		s = data[1]
	}
	if len(data) > 2 {
		m = data[2]
	}
	spec := datasets.StreamSpec{
		Nodes: 8 + int(n)%40, Features: 3, Classes: 3, Communities: 6,
		AvgDegree: 4, EdgeHomophily: float64(int(m)%11) / 10, FeatureSignal: 0.5,
		TrainFrac: 0.2, ValFrac: 0.2, Seed: int64(m)*131 + int64(n),
	}
	return spec, 1 + int(s)%4
}

// FuzzShardRoundTrip drives the full shard pipeline on adversarial input:
// the streaming builder must stay bit-equal to slicing the materialised
// graph, and the reassembled sharded embedding must match the single-shard
// one bit for bit.
func FuzzShardRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{13, 1, 7, 0xfe, 0x01})
	f.Add([]byte{39, 3, 200, 9, 9, 9, 9})
	f.Add([]byte("ADFGSHP1 almost a plan"))
	f.Add([]byte{5, 2, 10}) // 13 nodes, 3 shards, every edge homophilous

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, shards := decodeShardInput(data)
		p, err := PlanFromStream(spec, shards, spec.Seed)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}

		st, err := BuildFromStream(spec, p, sparse.NormSym)
		if err != nil {
			t.Fatalf("stream build: %v", err)
		}
		gr, err := BuildFromGraph(spec.Materialize(), p, sparse.NormSym)
		if err != nil {
			t.Fatalf("graph build: %v", err)
		}
		for i := range st.Shards {
			a, b := st.Shards[i], gr.Shards[i]
			if len(a.Cols) != len(b.Cols) || len(a.Adj.Val) != len(b.Adj.Val) {
				t.Fatalf("shard %d: stream/graph shapes differ", i)
			}
			for k := range a.Adj.Val {
				if a.Adj.ColIdx[k] != b.Adj.ColIdx[k] || a.Adj.Val[k] != b.Adj.Val[k] {
					t.Fatalf("shard %d: adjacency differs at %d", i, k)
				}
			}
		}

		// Sharded propagation must reassemble to the single-shard answer.
		one, err := NewPlan(make([]int32, spec.Nodes), 1)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := BuildFromStream(spec, one, sparse.NormSym)
		if err != nil {
			t.Fatal(err)
		}
		wantLoc, err := whole.Embedding(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotLoc, err := st.Embedding(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := gatherGlobal(whole, wantLoc)
		got := gatherGlobal(st, gotLoc)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("sharded embedding differs from unsharded at %d", i)
			}
		}
	})
}
