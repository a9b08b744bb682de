package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/registry"
	"repro/internal/serve"
)

// zooReqs and zooReqNodes shape the routing-overhead workload: zooReqs
// sequential predict calls of zooReqNodes nodes each, per path.
const (
	zooReqs     = 128
	zooReqNodes = 64
)

// zooOverheadLimit is the acceptance bound on the registry's routing tax:
// Registry.Predict (acquire, A/B check, per-model accounting) over a direct
// serve.Server.Predict on the same workload. The direct path is a 64-row
// gather from the server's logits table (≈ 12 µs a request), so the
// registry's ≈ 1 µs reads as 7–9%.
const zooOverheadLimit = 20.0 // percent

// zooReps and zooChunk shape the overhead measurement (interleavedRatio):
// zooReps passes over the stream, the direct and routed paths answering every
// chunk of zooChunk requests — a third of a millisecond — back to back. With
// zooChunks (320) timed chunks per path, a burst from whatever else shares the
// machine (other packages' tests under `go test ./...`) spoils single chunks,
// not the figure.
const (
	zooReps   = 20
	zooChunk  = 8
	zooChunks = zooReps * zooReqs / zooChunk // timed per path
)

// zooTimingAttempts is how often a reading over the limit is re-measured
// before the routing tax is declared over budget: the true tax sits near half
// the limit, a reading's spread is a few points, and a real regression stays
// over the limit on every attempt.
const zooTimingAttempts = 3

// Zoo regenerates the multi-model serving comparison: three artifacts — a
// federated GCN baseline, a federated SGC baseline and the AdaFGL Step-1
// extractor, all trained on one shared scaled Cora — are checkpointed into a
// temp directory, scanned into a model registry (internal/registry), and
// served side by side. Reported are the registry's routing overhead over a
// directly held server of the SGC baseline (cross-checked
// bit-identical, must stay within zooOverheadLimit), and the live A/B comparison of
// baseline vs AdaFGL under a 50/50 deterministic node split — the paper's
// baseline-vs-AdaFGL table as an online measurement.
func Zoo(s Scale) ([]string, error) {
	if s.Factor <= 0 {
		s.Factor = 0.5 // quickstart scale
	}

	// One shared graph and split so every artifact answers the same nodes and
	// online accuracy is comparable across arms.
	g, subs, err := split("Cora", Community, nil, s, s.Seed)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg()
	opt := s.fedOpts(s.Seed)
	if opt.Rounds > 10 {
		opt.Rounds = 10 // training cost is not what this experiment measures
	}

	dir, err := os.MkdirTemp("", "adafgl-zoo-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Train and persist the zoo: plain federated baselines via federated.Run,
	// AdaFGL via its two-step pipeline (the servable artifact is the Step-1
	// federated knowledge extractor).
	for _, arch := range []string{"GCN", "SGC"} {
		clients := federated.BuildClients(cloneSubs(subs), models.Registry[arch], cfg, s.Seed)
		res, err := federated.Run(clients, s.Seed+1, opt)
		if err != nil {
			return nil, err
		}
		ck, err := checkpoint.FromResult(res, arch, cfg, g)
		if err != nil {
			return nil, err
		}
		name := "fedgcn"
		if arch == "SGC" {
			name = "fedsgc"
		}
		if err := checkpoint.Save(filepath.Join(dir, name+"@1.ckpt"), ck); err != nil {
			return nil, err
		}
	}
	ada := s.adaMethod()
	resAda, err := ada.Run(cloneSubs(subs), cfg, opt)
	if err != nil {
		return nil, err
	}
	ckAda, err := checkpoint.FromResult(resAda, ada.Opt.ExtractorArch, cfg, g)
	if err != nil {
		return nil, err
	}
	if err := checkpoint.Save(filepath.Join(dir, "adafgl@1.ckpt"), ckAda); err != nil {
		return nil, err
	}

	reg := registry.New(registry.Options{
		Serve: serve.Options{MaxBatch: zooReqNodes, MaxWait: 0, Seed: s.Seed},
	})
	defer reg.Close()
	infos, err := reg.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	lines := []string{
		"Model zoo: registry-routed multi-model serving vs direct servers, plus live A/B",
		fmt.Sprintf("zoo: %d artifacts over %d nodes / %d classes (%s)",
			len(infos), g.N, g.Classes, zooRoster(infos)),
	}

	// Routing overhead on the SGC baseline: the same sequential
	// request stream answered by a directly held server and by
	// Registry.Predict, bit-identity cross-checked, wall times compared.
	overheadLine, err := zooOverhead(reg)
	if err != nil {
		return nil, err
	}
	lines = append(lines, overheadLine)

	// Live A/B: control = federated GCN baseline, candidate = AdaFGL, 50/50
	// deterministic node split on control-addressed traffic.
	abLines, err := zooAB(reg, g.N, s.Seed)
	if err != nil {
		return nil, err
	}
	return append(lines, abLines...), nil
}

// zooRoster formats "name@version(arch)" for the zoo header.
func zooRoster(infos []registry.ModelInfo) string {
	out := ""
	for i, info := range infos {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s@%d:%s", info.Name, info.Version, info.Arch)
	}
	return out
}

// zooBatch builds the node set of request i.
func zooBatch(i, n int) []int {
	nodes := make([]int, zooReqNodes)
	for j := range nodes {
		nodes[j] = ((i*zooReqNodes + j) * 13) % n
	}
	return nodes
}

// zooOverhead measures the registry's routing tax on fedsgc and enforces the
// acceptance bound. Both paths answer the identical request stream,
// interleaved in chunks; the ratio of their undisturbed per-request costs is
// compared to the limit.
func zooOverhead(reg *registry.Registry) (string, error) {
	h, err := reg.Acquire("fedsgc")
	if err != nil {
		return "", err
	}
	defer h.Release()
	srv := h.Server()
	n := srv.Nodes()

	direct := func(i int) ([]serve.Prediction, error) { return srv.Predict(zooBatch(i, n)) }
	routed := func(i int) ([]serve.Prediction, error) { return reg.Predict("fedsgc", zooBatch(i, n)) }

	// Warm both paths and cross-check bit-identity on the way.
	for i := 0; i < 4; i++ {
		dp, err := direct(i)
		if err != nil {
			return "", err
		}
		rp, err := routed(i)
		if err != nil {
			return "", err
		}
		if err := comparePredSlices(dp, rp); err != nil {
			return "", fmt.Errorf("bench: zoo: routed vs direct: %w", err)
		}
	}

	chunk := func(viaRegistry bool, from, k int) (time.Duration, error) {
		predict := direct
		if viaRegistry {
			predict = routed
		}
		start := time.Now()
		for i := from; i < from+k; i++ {
			if _, err := predict(i); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var pct float64
	var perDirect, perRouted time.Duration
	for attempt := 0; attempt < zooTimingAttempts; attempt++ {
		ratio, total, err := interleavedRatio(zooReps, zooReqs, zooChunk, chunk)
		if err != nil {
			return "", err
		}
		perDirect, perRouted = total[false]/(zooReps*zooReqs), total[true]/(zooReps*zooReqs)
		if pct = 100 * (ratio - 1); pct <= zooOverheadLimit {
			break
		}
	}
	if pct > zooOverheadLimit {
		return "", fmt.Errorf("bench: zoo: routing overhead %.1f%% exceeds %.0f%% (lower-quartile chunk time of %d interleaved chunks per path; mean direct %v, routed %v per %d-node request)",
			pct, zooOverheadLimit, zooChunks, perDirect, perRouted, zooReqNodes)
	}
	if pct < 0 {
		pct = 0
	}
	return fmt.Sprintf("routing: direct %v/req vs routed %v/req -> overhead %.1f%% (limit %.0f%%, lower-quartile chunk time of %d interleaved chunks per path, %d requests x %d nodes, bit-identical ok)",
		perDirect.Round(time.Microsecond), perRouted.Round(time.Microsecond),
		pct, zooOverheadLimit, zooChunks, zooReqs, zooReqNodes), nil
}

// comparePredSlices requires bit-identical positional predictions.
func comparePredSlices(a, b []serve.Prediction) error {
	if len(a) != len(b) {
		return fmt.Errorf("answer lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Class != b[i].Class {
			return fmt.Errorf("position %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Logits {
			if a[i].Logits[j] != b[i].Logits[j] {
				return fmt.Errorf("node %d logit %d differs bitwise", a[i].Node, j)
			}
		}
	}
	return nil
}

// zooAB installs the baseline-vs-AdaFGL experiment, drives every node through
// the control-addressed endpoint, and renders the per-arm report.
func zooAB(reg *registry.Registry, n int, seed int64) ([]string, error) {
	cfg := registry.ABConfig{Control: "fedgcn", Candidate: "adafgl", Fraction: 0.5, Salt: uint64(seed)}
	if err := reg.ConfigureAB(cfg); err != nil {
		return nil, err
	}
	for at := 0; at < n; at += zooReqNodes {
		hi := at + zooReqNodes
		if hi > n {
			hi = n
		}
		nodes := make([]int, hi-at)
		for i := range nodes {
			nodes[i] = at + i
		}
		if _, err := reg.Predict("fedgcn", nodes); err != nil {
			return nil, err
		}
	}
	rep, err := reg.ABReportNow()
	if err != nil {
		return nil, err
	}
	arm := func(label string, a registry.ABArmReport) string {
		return fmt.Sprintf("A/B %-9s %-8s acc=%.3f over %d nodes (%d req, mean %v)",
			label, a.Model, a.Stats.Accuracy, a.Stats.Labelled, a.Stats.Requests,
			a.Stats.MeanLat.Round(time.Microsecond))
	}
	return []string{
		fmt.Sprintf("A/B split: %s vs %s at fraction %.2f (deterministic per-node hash, salt %d)",
			cfg.Control, cfg.Candidate, cfg.Fraction, cfg.Salt),
		arm("control", rep.Control),
		arm("candidate", rep.Candidate),
		fmt.Sprintf("A/B delta: candidate %+.3f accuracy vs control",
			rep.Candidate.Stats.Accuracy-rep.Control.Stats.Accuracy),
	}, nil
}

func cloneSubs(subs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(subs))
	for i, g := range subs {
		out[i] = g.Clone()
	}
	return out
}
