package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{Factor: 0.08, Clients: 3, Rounds: 6, LocalEpochs: 1, Runs: 1, AdaEpochs: 15, Correction: 5, Seed: 1}
}

func TestMakeSplitKinds(t *testing.T) {
	s := tinyScale()
	for _, kind := range []SplitKind{Community, NonIID, NonIIDMeta} {
		subs, err := MakeSplit("Cora", kind, s, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(subs) != s.Clients {
			t.Fatalf("%v: %d subgraphs, want %d", kind, len(subs), s.Clients)
		}
	}
	if _, err := MakeSplit("bogus", Community, s, 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestResolveMethod(t *testing.T) {
	s := tinyScale()
	for _, name := range []string{"AdaFGL", "GCN", "FedGL", "GCFL+", "FedSage+", "FED-PUB", "GloGNN"} {
		m, err := ResolveMethod(name, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := ResolveMethod("nope", s); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestRunCellProducesStats(t *testing.T) {
	s := tinyScale()
	s.Runs = 2
	c, err := RunCell("Cora", Community, "GCN", s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mean <= 0 || c.Mean > 1 {
		t.Fatalf("mean %v outside (0,1]", c.Mean)
	}
	if len(c.Curve) != s.Rounds {
		t.Fatalf("curve len %d, want %d", len(c.Curve), s.Rounds)
	}
	if len(c.PerClient) != s.Clients {
		t.Fatalf("per-client len %d, want %d", len(c.PerClient), s.Clients)
	}
}

func TestMeanStd(t *testing.T) {
	m, sd := meanStd([]float64{1, 2, 3})
	if m != 2 {
		t.Fatalf("mean %v", m)
	}
	if sd != 1 {
		t.Fatalf("std %v", sd)
	}
	if m, sd = meanStd(nil); m != 0 || sd != 0 {
		t.Fatal("empty meanStd must be 0,0")
	}
	if _, sd = meanStd([]float64{5}); sd != 0 {
		t.Fatal("single-value std must be 0")
	}
}

func TestTable1Lines(t *testing.T) {
	lines, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 14 { // title + header + 12 datasets
		t.Fatalf("Table1 lines = %d, want 14", len(lines))
	}
	if !strings.Contains(lines[2], "Cora") {
		t.Fatalf("first dataset row = %q", lines[2])
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table3i", "table4", "table5", "table6", "table7", "table8",
		"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "chaos", "shard", "obs"}
	for _, id := range want {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Experiments) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments), len(want))
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", tinyScale()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable8Paradigms(t *testing.T) {
	lines, err := Table8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 7 { // title + header + 5 methods
		t.Fatalf("Table8 lines = %d: %v", len(lines), lines)
	}
	if !strings.Contains(lines[len(lines)-1], "AdaFGL") {
		t.Fatal("AdaFGL row missing")
	}
}

func TestFig2Smoke(t *testing.T) {
	s := tinyScale()
	lines, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"FIG 2(a)", "FIG 2(b)", "FIG 2(c)", "FIG 2(d)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing section %s", want)
		}
	}
	// Panels (a)/(b) must describe the very partitions (c)/(d) train on.
	for _, kind := range bothSplits {
		subs, err := MakeSplit("Cora", kind, s, s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range subs {
			want := fmt.Sprintf("   client %2d: %v", i, sub.LabelDistribution())
			if !strings.Contains(joined, want) {
				t.Errorf("%v: panel (a) does not describe the trained split: missing %q", kind, want)
			}
		}
	}
}

func TestFig7HCSTracking(t *testing.T) {
	lines, err := Fig7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 13 { // title + 6 datasets × 2 splits
		t.Fatalf("Fig7 lines = %d", len(lines))
	}
}

func TestSplitKindString(t *testing.T) {
	if Community.String() != "Community" || NonIID.String() != "Non-iid" || NonIIDMeta.String() != "Non-iid(meta)" {
		t.Fatal("SplitKind strings wrong")
	}
	if SplitKind(99).String() != "?" {
		t.Fatal("unknown kind must render ?")
	}
}

func TestChaosExperiment(t *testing.T) {
	s := tinyScale()
	lines, err := Chaos(s)
	if err != nil { // includes the steady-scenario bit-identity cross-checks
		t.Fatal(err)
	}
	// Title + cross-check + header + 6 scenarios x 4 aggregators + headline.
	if len(lines) != 3+6*4+1 {
		t.Fatalf("Chaos lines = %d, want %d:\n%s", len(lines), 3+6*4+1, strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[1], "cross-check passed") {
		t.Fatalf("cross-check line = %q", lines[1])
	}
	for _, scen := range []string{"steady", "churn", "crashrejoin", "byz-labelflip", "byz-signflip", "byz-scale"} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, scen) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no table row for scenario %s", scen)
		}
	}
	if !strings.HasPrefix(lines[len(lines)-1], "headline:") {
		t.Fatalf("missing degradation headline, last line %q", lines[len(lines)-1])
	}
}

// TestObsFamiliesLinked holds the obs experiment's exposition check to the
// packages this one links: every core family registers at package
// initialisation, so one scrape of a fresh process must already carry them.
func TestObsFamiliesLinked(t *testing.T) {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range obsCoreFamilies {
		if !telemetry.HasFamily(buf.Bytes(), fam) {
			t.Errorf("exposition lacks %s: the layer that registers it is not linked", fam)
		}
	}
}
