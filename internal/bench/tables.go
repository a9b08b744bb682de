package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
)

// TransductiveDatasets lists the Table II columns in paper order.
var TransductiveDatasets = []string{
	"Cora", "CiteSeer", "PubMed", "Computer", "Physics",
	"Chameleon", "Squirrel", "Actor", "Penn94", "arxiv-year",
}

// InductiveDatasets lists the Table III datasets.
var InductiveDatasets = []string{"Flickr", "Reddit"}

// MainMethods lists the Table II row methods in paper order.
var MainMethods = []string{
	"GCN", "GCNII", "GAMLP", "GGCN", "GloGNN", "GPRGNN",
	"FedGL", "GCFL+", "FedSage+", "FED-PUB", "AdaFGL",
}

// InductiveMethods lists the Table III rows.
var InductiveMethods = []string{"GCNII", "GloGNN", "FedGL", "GCFL+", "FedSage+", "FED-PUB", "AdaFGL"}

// Table1 regenerates the dataset statistics table.
func Table1(s Scale) ([]string, error) {
	out := []string{"TABLE I: dataset statistics (synthetic, scaled)",
		fmt.Sprintf("%-12s %8s %8s %8s %8s %8s %8s", "Dataset", "#Nodes", "#Edges", "#Feat", "#Class", "E.Homo", "target")}
	for _, spec := range datasets.Registry {
		g := datasets.GenerateScaled(spec, s.Factor, s.Seed)
		st := g.Summary()
		out = append(out, fmt.Sprintf("%-12s %8d %8d %8d %8d %8.3f %8.3f",
			spec.Name, st.Nodes, st.Edges, st.Features, st.Classes, st.EdgeHomophily, spec.EdgeHomophily))
	}
	return out, nil
}

// renderGrid is the one row×column table renderer: title, a header of
// corner + column names, then one line per row with mean±std cells. Cells are
// evaluated row-major before anything is rendered so starBest can mark each
// column's best row. Labels take 10 characters, cells width.
func renderGrid(title, corner string, rows, cols []string, width int, starBest bool, cell func(r, c int) (Cell, error)) ([]string, error) {
	header := fmt.Sprintf("%-10s", corner)
	for _, c := range cols {
		header += fmt.Sprintf(" %*s", width, c)
	}
	out := []string{title, header}
	cells := make([][]Cell, len(rows))
	for r := range rows {
		cells[r] = make([]Cell, len(cols))
		for c := range cols {
			var err error
			if cells[r][c], err = cell(r, c); err != nil {
				return nil, err
			}
		}
	}
	for r, name := range rows {
		line := fmt.Sprintf("%-10s", name)
		for c := range cols {
			str := fmtCell(cells[r][c])
			if starBest && isBest(cells, r, c) {
				str = "*" + str + "*"
			}
			line += fmt.Sprintf(" %*s", width, str)
		}
		out = append(out, line)
	}
	return out, nil
}

func isBest(cells [][]Cell, r, c int) bool {
	for _, row := range cells {
		if row[c].Mean > cells[r][c].Mean {
			return false
		}
	}
	return true
}

// pairColumns expands each dataset into two adjacent columns, one per suffix.
func pairColumns(dsets []string, first, second string) []string {
	var cols []string
	for _, d := range dsets {
		cols = append(cols, d+first, d+second)
	}
	return cols
}

// Table2 regenerates the transductive comparison (both splits).
func Table2(s Scale) ([]string, error) {
	return accuracyGrids("TABLE II: transductive accuracy", TransductiveDatasets, MainMethods, s)
}

// Table3 regenerates the inductive comparison (both splits).
func Table3(s Scale) ([]string, error) {
	return accuracyGrids("TABLE III: inductive accuracy", InductiveDatasets, InductiveMethods, s)
}

// accuracyGrids renders the method × dataset grid once per split.
func accuracyGrids(title string, dsets, methods []string, s Scale) ([]string, error) {
	var out []string
	for _, kind := range bothSplits {
		block, err := renderGrid(title+" — "+splitTitle[kind], "Method", methods, dsets, 12, true, func(r, c int) (Cell, error) {
			return RunCell(dsets[c], kind, methods[r], s)
		})
		if err != nil {
			return nil, err
		}
		if out != nil {
			out = append(out, "")
		}
		out = append(out, block...)
	}
	return out, nil
}

// Table4Methods lists the rows of Tables IV/V.
var Table4Methods = []string{"FedGL", "GCFL+", "FedSage+", "FED-PUB", "AdaFGL"}

// Table4 regenerates the transductive injection comparison (Physics, Penn94).
func Table4(s Scale) ([]string, error) {
	return injectionGrid("TABLE IV: transductive, random vs meta injection", []string{"Physics", "Penn94"}, s)
}

// Table5 regenerates the inductive injection comparison (Flickr, Reddit).
func Table5(s Scale) ([]string, error) {
	return injectionGrid("TABLE V: inductive, random vs meta injection", []string{"Flickr", "Reddit"}, s)
}

// injectionGrid powers Tables IV and V: random vs meta injection per dataset.
// The corner is padded one past the label width: these two headers have
// always sat one column right of their rows, and the golden pins it.
func injectionGrid(title string, dsets []string, s Scale) ([]string, error) {
	kinds := []SplitKind{NonIID, NonIIDMeta}
	return renderGrid(title, "Method     ", Table4Methods, pairColumns(dsets, "(R)", "(M)"), 15, false, func(r, c int) (Cell, error) {
		return RunCell(dsets[c/2], kinds[c%2], Table4Methods[r], s)
	})
}

// Ablations enumerates the component switches of Tables VI/VII.
var Ablations = []struct {
	Name string
	Mod  func(*core.Options)
}{
	{"w/o K.P.", func(o *core.Options) { o.DisableKP = true }},
	{"w/o T.F.", func(o *core.Options) { o.DisableTF = true }},
	{"w/o L.M.", func(o *core.Options) { o.DisableLM = true }},
	{"w/o L.T.", func(o *core.Options) { o.DisableLT = true }},
	{"w/o HCS", func(o *core.Options) { o.DisableHCS = true }},
	{"AdaFGL", func(o *core.Options) {}},
}

// ablationGrid powers Tables VI and VII: AdaFGL with one component disabled
// per row, both splits per dataset.
func ablationGrid(title string, dsets []string, s Scale) ([]string, error) {
	var rows []string
	for _, ab := range Ablations {
		rows = append(rows, ab.Name)
	}
	return renderGrid(title, "Component", rows, pairColumns(dsets, "-Com", "-NIID"), 14, false, func(r, c int) (Cell, error) {
		return runCell(s, runSpec{dataset: dsets[c/2], kind: bothSplits[c%2], method: "AdaFGL", ada: Ablations[r].Mod})
	})
}

// Table6 regenerates the homophilous ablation study (Computer, Reddit).
func Table6(s Scale) ([]string, error) {
	return ablationGrid("TABLE VI: ablation on homophilous datasets", []string{"Computer", "Reddit"}, s)
}

// Table7 regenerates the heterophilous ablation study (arxiv-year, Flickr).
func Table7(s Scale) ([]string, error) {
	return ablationGrid("TABLE VII: ablation on heterophilous datasets", []string{"arxiv-year", "Flickr"}, s)
}

// makeInductive is the runSpec.prepare hook of the true inductive protocol:
// every client trains on the subgraph induced over its non-test nodes.
func makeInductive(subs []*graph.Graph, _ *federated.Options) error {
	for i := range subs {
		subs[i] = graph.MakeInductive(subs[i])
	}
	return nil
}

// Table3Inductive regenerates Table III under the paper's true inductive
// protocol: each client trains on the subgraph induced over its non-test
// nodes and is evaluated on the full subgraph (unseen nodes and edges
// revealed at test time). Restricted to the methods whose evaluation path
// supports parameter transplantation onto the full graph.
func Table3Inductive(s Scale) ([]string, error) {
	methods := []string{"GCNII", "GloGNN", "GCFL+", "FED-PUB", "AdaFGL"}
	out := []string{"TABLE III (true inductive protocol): accuracy on unseen test nodes"}
	for _, kind := range bothSplits {
		out = append(out, "  "+kind.String())
		for _, mn := range methods {
			row := fmt.Sprintf("   %-10s", mn)
			for _, d := range InductiveDatasets {
				c, err := runCell(s, runSpec{dataset: d, kind: kind, method: mn, prepare: makeInductive})
				if err != nil {
					return nil, err
				}
				row += fmt.Sprintf(" %s=%s", d, fmtCell(c))
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Table8 regenerates the paradigm comparison: the static taxonomy of
// Sec. IV-D augmented with measured per-round communication volume.
func Table8(s Scale) ([]string, error) {
	rows := []struct {
		name, typ, comm string
	}{
		{"FedGL", "FedC", "Model Param. + Node Pred. + Node Emb."},
		{"GCFL+", "FedS", "Model Param. + Model Grad."},
		{"FedSage+", "FedC", "Model Param. + Node Emb. + NeighGen Grad."},
		{"FED-PUB", "FedC", "Model Param. + Model Mask"},
		{"AdaFGL", "FedC", "Model Param. only"},
	}
	out := []string{"TABLE VIII: FGL paradigm comparison",
		fmt.Sprintf("%-10s %-6s %-46s %14s", "Method", "Type", "Communication content", "bytes/round")}
	for _, r := range rows {
		res, _, err := runOne(s, runSpec{dataset: "Cora", kind: Community, method: r.name}, s.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%-10s %-6s %-46s %14d", r.name, r.typ, r.comm, res.BytesPerRound))
	}
	return out, nil
}
