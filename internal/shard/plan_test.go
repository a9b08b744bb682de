package shard

import (
	"strings"
	"testing"

	"repro/internal/datasets"
)

// TestNewPlanValidation covers the ownership-vector contract: bad shard
// counts, out-of-range owners and empty shards are all rejected.
func TestNewPlanValidation(t *testing.T) {
	cases := []struct {
		name   string
		owner  []int32
		shards int
		want   string
	}{
		{"zero shards", []int32{0}, 0, "< 1"},
		{"more shards than nodes", []int32{0}, 2, "< 2 shards"},
		{"negative owner", []int32{0, -1}, 2, "outside"},
		{"owner too large", []int32{0, 2}, 2, "outside"},
		{"empty shard", []int32{0, 0, 2}, 3, "owns no nodes"},
	}
	for _, tc := range cases {
		if _, err := NewPlan(tc.owner, tc.shards); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestPlanMapping checks the plan invariants every consumer leans on: each
// node is owned exactly once, local ids are dense ranks in ascending global
// order, and NodesByShard inverts LocalID.
func TestPlanMapping(t *testing.T) {
	owner := []int32{1, 0, 1, 1, 0, 2, 2, 0}
	p, err := NewPlan(owner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != len(owner) || p.NumShards() != 3 {
		t.Fatalf("N/NumShards = %d/%d", p.N(), p.NumShards())
	}
	total := 0
	for s := 0; s < p.NumShards(); s++ {
		total += p.Size(s)
	}
	if total != p.N() {
		t.Fatalf("shard sizes sum to %d, want %d", total, p.N())
	}
	byShard := p.NodesByShard()
	for s, nodes := range byShard {
		for i, v := range nodes {
			if p.Owner(v) != s || p.LocalID(v) != i {
				t.Fatalf("node %d: owner/local = %d/%d, want %d/%d", v, p.Owner(v), p.LocalID(v), s, i)
			}
			if i > 0 && nodes[i-1] >= v {
				t.Fatalf("shard %d nodes not ascending: %v", s, nodes)
			}
		}
	}
}

// TestPlanFromGraph checks the METIS-planned ownership covers every node
// with non-empty balanced-ish shards, and shards=1 yields the trivial plan.
func TestPlanFromGraph(t *testing.T) {
	g := datasets.DefaultStream(200, 3).Materialize()
	p, err := PlanFromGraph(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 4 || p.N() != g.N {
		t.Fatalf("plan %d shards over %d nodes", p.NumShards(), p.N())
	}
	one, err := PlanFromGraph(g, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < one.N(); v++ {
		if one.Owner(v) != 0 || one.LocalID(v) != v {
			t.Fatalf("trivial plan: node %d -> %d/%d", v, one.Owner(v), one.LocalID(v))
		}
	}
	if _, err := PlanFromGraph(g, 0, 7); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := PlanFromGraph(g, g.N+1, 7); err == nil {
		t.Fatal("expected error for more shards than nodes")
	}
}

// TestPlanFromStream checks streamed planning covers every node, keeps
// communities whole (nodes of one community share a shard) and rejects bad
// inputs.
func TestPlanFromStream(t *testing.T) {
	spec := datasets.DefaultStream(300, 5)
	p, err := PlanFromStream(spec, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != spec.Nodes || p.NumShards() != 4 {
		t.Fatalf("plan %d shards over %d nodes", p.NumShards(), p.N())
	}
	commShard := make(map[int]int)
	for v := 0; v < spec.Nodes; v++ {
		c := spec.Community(v)
		if s, ok := commShard[c]; ok && s != p.Owner(v) {
			t.Fatalf("community %d split across shards %d and %d", c, s, p.Owner(v))
		}
		commShard[c] = p.Owner(v)
	}
	if _, err := PlanFromStream(spec, 0, 9); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := PlanFromStream(spec, spec.NumCommunities()+1, 9); err == nil {
		t.Fatal("expected error for more shards than communities")
	}
	bad := spec
	bad.Nodes = 0
	if _, err := PlanFromStream(bad, 2, 9); err == nil {
		t.Fatal("expected error for invalid spec")
	}
}
