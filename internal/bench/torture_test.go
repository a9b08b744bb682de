package bench

import (
	"strings"
	"testing"
)

// TestTortureParse covers the spec grammar: defaults, overrides, round-trip,
// and rejection of unknown scenarios, unknown keys, malformed pairs and
// non-finite values (a NaN pending budget becomes a negative MaxPending,
// which disables admission control).
func TestTortureParse(t *testing.T) {
	sc, err := ParseTorture("overload")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["pending"] != 96 || sc.Params["conc"] != 24 {
		t.Fatalf("defaults not applied: %v", sc.Params)
	}
	sc, err = ParseTorture("overload:pending=8,conc=4")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["pending"] != 8 || sc.Params["conc"] != 4 {
		t.Fatalf("overrides not applied: %v", sc.Params)
	}
	rt, err := ParseTorture(sc.Spec())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", sc.Spec(), err)
	}
	for k, v := range sc.Params {
		if rt.Params[k] != v {
			t.Fatalf("round-trip lost %s: %v vs %v", k, rt.Params[k], v)
		}
	}
	for _, bad := range []string{
		"nope", "overload:bogus=1", "overload:pending", "overload:pending=x",
		"overload:pending=NaN", "overload:conc=Inf", "overload:conc=-Inf", "overload:=4", "overload:pending=8,",
	} {
		if _, err := ParseTorture(bad); err == nil {
			t.Errorf("ParseTorture(%q) accepted", bad)
		}
	}
	if len(TortureNames()) != 4 {
		t.Fatalf("scenario registry has %d entries, want 4", len(TortureNames()))
	}
}

// TestTortureOverloadScenario runs the overload scenario end to end at tiny
// scale: the harness's own invariant checks (no drops, exactly-once,
// Retry-After on sheds, bit-identical survivors, post-storm recovery) are
// the assertions. How much actually sheds depends on machine timing, so the
// test pins the outcome accounting, not a shed count.
func TestTortureOverloadScenario(t *testing.T) {
	rep, err := RunTorture("overload:conc=8,reqs=8,nodes=32,pending=64", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK+rep.Shed != rep.Requests {
		t.Fatalf("outcomes don't cover requests: %+v", rep)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("lenient scan quarantined %d artifacts, want 1: %+v", rep.Quarantined, rep)
	}
	if !strings.HasPrefix(rep.Scenario, "overload:") {
		t.Fatalf("canonical spec = %q", rep.Scenario)
	}
}

// BenchmarkTortureOverload is the smoke-bench probe of serving resilience:
// one seeded overload storm per iteration, reporting shed-rate and
// client-observed p99 under overload as extra metrics so cmd/benchjson
// records them in BENCH_smoke.json.
func BenchmarkTortureOverload(b *testing.B) {
	s := tinyScale()
	for i := 0; i < b.N; i++ {
		rep, err := RunTorture("overload:conc=8,reqs=8,nodes=32,pending=64", s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.ShedRate, "shed-rate")
		b.ReportMetric(float64(rep.P99.Nanoseconds()), "p99-ns")
	}
}
