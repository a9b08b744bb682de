package graph

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// TestCacheCountersFollowLookups walks one graph through a cold lookup, a warm
// one and an invalidation and checks each lands in its own
// adafgl_graph_cache_total series — and that nothing moves while telemetry is
// switched off.
func TestCacheCountersFollowLookups(t *testing.T) {
	series := []*telemetry.Counter{telNormHit, telNormMiss, telNormInvalidate, telPropXHit, telPropXMiss, telPropXInvalidate}
	step := func(name string, do func(), want [6]uint64) {
		t.Helper()
		var before [6]uint64
		for i, c := range series {
			before[i] = c.Value()
		}
		do()
		for i, c := range series {
			if got := c.Value() - before[i]; got != want[i] {
				t.Fatalf("%s: series %d moved by %d, want %d", name, i, got, want[i])
			}
		}
	}
	g := mutationFixture(20, 6)
	//                                                              norm: hit miss inv  propX: hit miss inv
	step("cold PropagatedX", func() { g.PropagatedX(sparse.NormSym) }, [6]uint64{0, 1, 0, 0, 1, 0})
	step("warm PropagatedX", func() { g.PropagatedX(sparse.NormSym) }, [6]uint64{1, 0, 0, 1, 0, 0})
	step("NormAdj", func() { g.NormAdj(sparse.NormSym) }, [6]uint64{1, 0, 0, 0, 0, 0})
	step("InvalidateAdj", g.InvalidateAdj, [6]uint64{0, 0, 1, 0, 0, 1})
	step("InvalidateAdj on empty caches", g.InvalidateAdj, [6]uint64{})

	defer telemetry.SetEnabled(telemetry.SetEnabled(false))
	step("telemetry off", func() { g.PropagatedX(sparse.NormSym); g.InvalidateAdj() }, [6]uint64{})
}
