package registry

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/shard"
)

// TestShardedRegistryBitIdentical covers Options.Shards: a registry told to
// serve shard-aware must answer every model exactly as the plain registry —
// the routing layer above cannot tell the two apart. A decoupled artifact
// rides the shard router; a message-passing one (GCNII used to trip its
// breaker with "neither decoupled nor layered") cold-starts as the plain
// server.
func TestShardedRegistryBitIdentical(t *testing.T) {
	dir := zooDir(t, "m@1")
	saveCkpt(t, dir, "deep@1.ckpt", makeCkpt(t, "GCNII", 3, 100))

	plain := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}})
	defer plain.Close()
	sharded := New(Options{Serve: serve.Options{MaxBatch: 8, Seed: 1}, Shards: 2})
	defer sharded.Close()
	for _, r := range []*Registry{plain, sharded} {
		if _, err := r.LoadDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	// The sharded registry really is serving through the shard router.
	h, err := sharded.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Server().(*shard.Server); !ok {
		t.Fatalf("sharded registry serves a %T, want *shard.Server", h.Server())
	}
	h.Release()

	nodes := []int{0, 5, 11, 2, 40, 7}
	for _, name := range []string{"m", "deep"} {
		a, err := plain.Predict(name, nodes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Predict(name, nodes)
		if err != nil {
			t.Fatalf("%s under Shards: 2: %v", name, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: prediction counts differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Class != b[i].Class {
				t.Fatalf("%s query %d: plain (%d,%d) vs sharded (%d,%d)",
					name, i, a[i].Node, a[i].Class, b[i].Node, b[i].Class)
			}
			for j := range a[i].Logits {
				if a[i].Logits[j] != b[i].Logits[j] {
					t.Fatalf("%s query %d logit %d differs between plain and sharded registry", name, i, j)
				}
			}
		}
	}

	// Stats flow through the sharded Predictor too.
	st, err := sharded.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Server == nil || st.Server.Requests == 0 {
		t.Fatalf("sharded stats = %+v", st.Server)
	}
}
