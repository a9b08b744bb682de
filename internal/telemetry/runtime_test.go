package telemetry

import (
	"strings"
	"testing"
)

// TestRuntimeGauges checks the go_* families register and scrape live
// runtime values.
func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	RegisterRuntimeGauges(r) // idempotent
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, fam := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total", "go_gomaxprocs"} {
		if !HasFamily([]byte(out), fam) {
			t.Errorf("missing family %s", fam)
		}
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("runtime exposition invalid: %v", err)
	}
	if v := runtimeSample("/sched/goroutines:goroutines")(); v < 1 {
		t.Fatalf("goroutines = %v", v)
	}
	if v := runtimeSample("/does/not/exist:none")(); v != 0 {
		t.Fatalf("unknown metric = %v, want 0", v)
	}
}

// TestRuntimeSnapshot checks the debug snapshot contains scalar runtime
// metrics.
func TestRuntimeSnapshot(t *testing.T) {
	snap := RuntimeSnapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	if _, ok := snap["/sched/goroutines:goroutines"]; !ok {
		t.Fatal("snapshot missing goroutine count")
	}
}
