package datasets

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegistryHasTwelveDatasets(t *testing.T) {
	if len(Registry) != 12 {
		t.Fatalf("registry has %d datasets, want 12 (Table I)", len(Registry))
	}
	seen := map[string]bool{}
	for _, s := range Registry {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes != 7 {
		t.Fatalf("Cora classes = %d, want 7", s.Classes)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) || names[0] != "Cora" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestGenerateMatchesSpecShape(t *testing.T) {
	for _, s := range Registry {
		g := GenerateScaled(s, 0.25, 1)
		if g.Classes != s.Classes {
			t.Errorf("%s: classes %d, want %d", s.Name, g.Classes, s.Classes)
		}
		if g.X.Cols != s.Features {
			t.Errorf("%s: features %d, want %d", s.Name, g.X.Cols, s.Features)
		}
		if g.N < 50 {
			t.Errorf("%s: too few nodes %d", s.Name, g.N)
		}
	}
}

func TestGenerateHitsTargetHomophily(t *testing.T) {
	for _, s := range Registry {
		g := Generate(s, 7)
		got := g.EdgeHomophily()
		// Homophilous sampling occasionally rejects; allow a small band.
		if math.Abs(got-s.EdgeHomophily) > 0.08 {
			t.Errorf("%s: edge homophily %.3f, target %.3f", s.Name, got, s.EdgeHomophily)
		}
	}
}

func TestGenerateHomophilyPolarity(t *testing.T) {
	cora := Generate(mustSpec(t, "Cora"), 3)
	cham := Generate(mustSpec(t, "Chameleon"), 3)
	if cora.EdgeHomophily() <= cham.EdgeHomophily() {
		t.Fatalf("Cora (%.3f) must be more homophilous than Chameleon (%.3f)",
			cora.EdgeHomophily(), cham.EdgeHomophily())
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	s := mustSpec(t, "Cora")
	a := GenerateScaled(s, 0.2, 99)
	b := GenerateScaled(s, 0.2, 99)
	if a.M() != b.M() || a.N != b.N {
		t.Fatal("same seed must give identical topology")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edge lists differ under same seed")
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ under same seed")
		}
	}
	c := GenerateScaled(s, 0.2, 100)
	if a.M() == c.M() && len(a.Edges) > 0 && a.Edges[0] == c.Edges[0] && a.Edges[len(a.Edges)-1] == c.Edges[len(c.Edges)-1] {
		t.Log("warning: different seeds produced suspiciously similar graphs")
	}
}

func TestGenerateSplitFractions(t *testing.T) {
	s := mustSpec(t, "Chameleon") // 60/20/20
	g := Generate(s, 5)
	st := g.Summary()
	total := float64(st.Train + st.Val + st.Test)
	if math.Abs(float64(st.Train)/total-0.6) > 0.05 {
		t.Fatalf("train frac = %v, want ≈0.6", float64(st.Train)/total)
	}
	if math.Abs(float64(st.Val)/total-0.2) > 0.05 {
		t.Fatalf("val frac = %v, want ≈0.2", float64(st.Val)/total)
	}
}

func TestGenerateBalancedLabels(t *testing.T) {
	s := mustSpec(t, "PubMed")
	g := Generate(s, 11)
	dist := g.LabelDistribution()
	for c, k := range dist {
		expect := float64(g.N) / float64(g.Classes)
		if math.Abs(float64(k)-expect) > expect*0.1 {
			t.Fatalf("class %d count %d far from balanced %v", c, k, expect)
		}
	}
}

func TestGenerateFeaturesInformative(t *testing.T) {
	// Per-class feature means must differ (class-conditional Gaussians).
	s := mustSpec(t, "Cora")
	g := GenerateScaled(s, 0.5, 13)
	sums := make([][]float64, g.Classes)
	counts := make([]int, g.Classes)
	for c := range sums {
		sums[c] = make([]float64, g.X.Cols)
	}
	for i := 0; i < g.N; i++ {
		c := g.Labels[i]
		counts[c]++
		for j, v := range g.X.Row(i) {
			sums[c][j] += v
		}
	}
	var dist float64
	for j := 0; j < g.X.Cols; j++ {
		m0 := sums[0][j] / float64(counts[0])
		m1 := sums[1][j] / float64(counts[1])
		dist += (m0 - m1) * (m0 - m1)
	}
	if math.Sqrt(dist) < 0.5 {
		t.Fatalf("class means too close: %v", math.Sqrt(dist))
	}
}

func TestHomophilousClassification(t *testing.T) {
	for _, name := range []string{"Cora", "PubMed", "Physics", "Reddit"} {
		if s := mustSpec(t, name); s.EdgeHomophily < 0.5 {
			t.Errorf("%s should be homophilous", name)
		}
	}
	for _, name := range []string{"Chameleon", "Squirrel", "Actor", "Penn94", "arxiv-year", "Flickr"} {
		if s := mustSpec(t, name); s.EdgeHomophily >= 0.5 {
			t.Errorf("%s should be heterophilous", name)
		}
	}
}

// Property: generated graphs never contain duplicate or out-of-range edges.
func TestQuickEdgeValidity(t *testing.T) {
	f := func(seed int64) bool {
		s := Registry[int(uint64(seed)%uint64(len(Registry)))]
		g := GenerateScaled(s, 0.1, seed)
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			if e[0] < 0 || e[1] >= g.N || e[0] > e[1] {
				return false
			}
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
