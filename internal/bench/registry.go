package bench

import (
	"fmt"
	"sort"
)

// Experiment couples an id with its runner and paper reference.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) ([]string, error)
}

// Experiments registers every table and figure of the evaluation section.
var Experiments = map[string]Experiment{
	"table1":  {"table1", "Table I: dataset statistics", Table1},
	"table2":  {"table2", "Table II: transductive performance, both splits", Table2},
	"table3":  {"table3", "Table III: inductive performance, both splits", Table3},
	"table3i": {"table3i", "Table III variant: true inductive protocol (hidden test nodes)", Table3Inductive},
	"table4":  {"table4", "Table IV: transductive, random vs meta injection", Table4},
	"table5":  {"table5", "Table V: inductive, random vs meta injection", Table5},
	"table6":  {"table6", "Table VI: ablation, homophilous datasets", Table6},
	"table7":  {"table7", "Table VII: ablation, heterophilous datasets", Table7},
	"table8":  {"table8", "Table VIII: FGL paradigm comparison", Table8},
	"fig2":    {"fig2", "Fig. 2: empirical analysis of the two splits", Fig2},
	"fig5":    {"fig5", "Fig. 5: varying topology heterogeneity", Fig5},
	"fig6":    {"fig6", "Fig. 6: α/β sensitivity", Fig6},
	"fig7":    {"fig7", "Fig. 7: client-dependent HCS", Fig7},
	"fig8":    {"fig8", "Fig. 8: convergence (large datasets)", Fig8},
	"fig9":    {"fig9", "Fig. 9: convergence (small datasets)", Fig9},
	"fig10":   {"fig10", "Fig. 10: sparsity robustness", Fig10},
	"fig11":   {"fig11", "Fig. 11: sparse client participation", Fig11},
	"gemm":    {"gemm", "Micro: naive vs blocked dense GEMM speedup", GEMM},
	"spmm":    {"spmm", "Micro: row-streamed vs blocked SpMM speedup (plan reuse included)", SpMM},
	"async":   {"async", "Micro: sync vs async aggregation under client-speed skew", Async},
	"chaos":   {"chaos", "Chaos: failure scenarios x robust aggregators, AdaFGL vs FGL baseline", Chaos},
	"serve":   {"serve", "Micro: single-request vs batched inference serving", Serve},
	"zoo":     {"zoo", "Micro: multi-model registry serving, routing overhead + live A/B", Zoo},
	"torture": {"torture", "Torture: HTTP serving resilience under overload/deadline/panic/corrupt scenarios", Torture},
	"shard":   {"shard", "Scale: streamed million-node graph sharding, memory/propagation linearity + sharded-fill bit-identity", ShardExp},
	"obs":     {"obs", "Micro: telemetry bit-identity (serve + federated) and hot-path overhead budget", Obs},
}

// IDs returns the experiment ids sorted.
func IDs() []string {
	out := make([]string, 0, len(Experiments))
	for id := range Experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunExperiment executes one experiment by id.
func RunExperiment(id string, s Scale) ([]string, error) {
	e, ok := Experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(s)
}
