// Model-zoo is the end-to-end field check of the multi-model serving
// lifecycle: train two versions of a baseline plus the AdaFGL extractor on
// one shared graph, persist them as name@version checkpoint artifacts, scan
// the directory into a model registry, expose the versioned v1 HTTP API on a
// loopback port, and drive it like an operator would — list the zoo, query
// pinned and active versions, hot-swap the baseline under concurrent load
// (asserting zero dropped or cross-wired answers), and run a live A/B split
// of baseline vs AdaFGL with the per-arm accuracy report. `make zoo-demo`
// runs exactly this.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/registry"
	"repro/internal/serve"
)

// swapLoad is the concurrent query load held on the model while its active
// version flips.
const swapLoad = 32

func main() {
	parallel.RegisterFlag(flag.CommandLine)
	flag.Parse()

	// 1. One shared graph so every model answers the same nodes.
	spec, err := datasets.ByName("Cora")
	if err != nil {
		log.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.5, 42)
	cd := partition.CommunitySplit(g, 5, rand.New(rand.NewSource(7)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0

	// 2. Train the zoo: two baseline versions (different training streams —
	// a version line), plus the AdaFGL Step-1 extractor.
	dir, err := os.MkdirTemp("", "model-zoo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	trainBaseline := func(version int, seed int64) {
		clients := federated.BuildClients(cloneSubs(cd.Subgraphs), models.Registry["GCN"], cfg, seed)
		res, err := federated.Run(clients, seed+1, federated.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		ck, err := checkpoint.FromResult(res, "GCN", cfg, g)
		if err != nil {
			log.Fatal(err)
		}
		file := filepath.Join(dir, fmt.Sprintf("baseline@%d.ckpt", version))
		if err := checkpoint.Save(file, ck); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained baseline@%d (seed %d): test acc %.3f\n", version, seed, res.TestAcc)
	}
	trainBaseline(1, 1)
	trainBaseline(2, 11)
	ada := core.New()
	ada.Opt.Epochs = 60
	resAda, err := ada.Run(cloneSubs(cd.Subgraphs), cfg, federated.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	ckAda, err := checkpoint.FromResult(resAda, ada.Opt.ExtractorArch, cfg, g)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkpoint.Save(filepath.Join(dir, "adafgl@1.ckpt"), ckAda); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained adafgl@1: test acc %.3f\n", resAda.TestAcc)
	fmt.Printf("zoo written to %s in %v\n\n", dir, time.Since(start).Round(time.Millisecond))

	// 3. Scan the artifact directory into a registry and expose the v1 API.
	reg := registry.New(registry.Options{
		Serve: serve.Options{MaxBatch: 64, MaxWait: 500 * time.Microsecond},
	})
	defer reg.Close()
	if _, err := reg.LoadDir(dir); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: reg.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("v1 API listening on %s\n", base)

	// 4. Operator tour: list the zoo, query the active and a pinned version.
	var list struct{ Models []registry.ModelInfo }
	getJSON(base+"/v1/models", &list)
	for _, m := range list.Models {
		mark := " "
		if m.Active {
			mark = "*"
		}
		fmt.Printf("%s %s@%d  %-4s %d nodes / %d params\n", mark, m.Name, m.Version, m.Arch, m.Nodes, m.Params)
	}
	var pr serve.PredictResponse
	getJSON(base+"/v1/models/baseline/predict?nodes=0,1,2", &pr)
	fmt.Printf("active baseline answers: %v\n", classes(pr))
	getJSON(base+"/v1/models/baseline@2/predict?nodes=0,1,2", &pr)
	fmt.Printf("pinned baseline@2 answers: %v\n\n", classes(pr))

	// 5. Hot-swap baseline 1 -> 2 under concurrent load: every in-flight
	// answer must be a complete answer from exactly one version.
	ref1 := refAll(reg, "baseline@1")
	ref2 := refAll(reg, "baseline@2")
	var wg sync.WaitGroup
	var mixed, failed atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < swapLoad; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				node := rng.Intn(g.N)
				var pr serve.PredictResponse
				if err := getJSONErr(fmt.Sprintf("%s/v1/models/baseline/predict?node=%d", base, node), &pr); err != nil {
					failed.Add(1)
					return
				}
				p := pr.Predictions[0]
				if !samePred(p, ref1[node]) && !samePred(p, ref2[node]) {
					mixed.Add(1)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	swapStart := time.Now()
	var swapped struct {
		From int `json:"from"`
		To   int `json:"to"`
	}
	postJSON(base+"/v1/models/baseline/swap", map[string]int{"version": 2}, &swapped)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := failed.Load(); n > 0 {
		log.Fatalf("FAIL: %d requests failed during the swap", n)
	}
	if n := mixed.Load(); n > 0 {
		log.Fatalf("FAIL: %d answers matched neither version bit-for-bit", n)
	}
	fmt.Printf("hot-swapped baseline %d -> %d in %v under %d concurrent clients (zero failures, all answers bit-exact)\n\n",
		swapped.From, swapped.To, time.Since(swapStart).Round(time.Millisecond), swapLoad)

	// 6. Live A/B: baseline (control) vs AdaFGL (candidate), then the report.
	postJSON(base+"/v1/ab", registry.ABConfig{Control: "baseline", Candidate: "adafgl", Fraction: 0.5, Salt: 42}, nil)
	for at := 0; at < g.N; at += 64 {
		hi := at + 64
		if hi > g.N {
			hi = g.N
		}
		nodes := make([]int, hi-at)
		for i := range nodes {
			nodes[i] = at + i
		}
		body, _ := json.Marshal(serve.PredictRequest{Nodes: nodes})
		resp, err := http.Post(base+"/v1/models/baseline/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var rep registry.ABReport
	getJSON(base+"/v1/ab/report", &rep)
	fmt.Printf("A/B %s vs %s at fraction %.2f:\n", rep.Config.Control, rep.Config.Candidate, rep.Config.Fraction)
	fmt.Printf("  control   %-8s acc=%.3f over %d nodes\n", rep.Control.Model, rep.Control.Stats.Accuracy, rep.Control.Stats.Labelled)
	fmt.Printf("  candidate %-8s acc=%.3f over %d nodes\n", rep.Candidate.Model, rep.Candidate.Stats.Accuracy, rep.Candidate.Stats.Labelled)
	fmt.Printf("  delta: candidate %+.3f accuracy\n", rep.Candidate.Stats.Accuracy-rep.Control.Stats.Accuracy)
	fmt.Println("\nmodel-zoo demo ok")
}

// refAll computes the bit-exact reference answer of every node on one pinned
// version through the in-process API.
func refAll(reg *registry.Registry, ref string) []serve.Prediction {
	h, err := reg.Acquire(ref)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Release()
	nodes := make([]int, h.Server().Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	preds, err := h.Server().Predict(nodes)
	if err != nil {
		log.Fatal(err)
	}
	return preds
}

// samePred reports bitwise prediction equality.
func samePred(a, b serve.Prediction) bool {
	if a.Node != b.Node || a.Class != b.Class || len(a.Logits) != len(b.Logits) {
		return false
	}
	for i := range a.Logits {
		if a.Logits[i] != b.Logits[i] {
			return false
		}
	}
	return true
}

// classes renders the predicted class per node compactly.
func classes(pr serve.PredictResponse) []int {
	out := make([]int, len(pr.Predictions))
	for i, p := range pr.Predictions {
		out[i] = p.Class
	}
	return out
}

// getJSON fetches and decodes a URL, fataling on any failure.
func getJSON(url string, v any) {
	if err := getJSONErr(url, v); err != nil {
		log.Fatal(err)
	}
}

// getJSONErr fetches and decodes a URL, requiring status 200.
func getJSONErr(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// postJSON posts a JSON body and decodes the 200 answer into out (nil skips).
func postJSON(url string, in, out any) {
	b, _ := json.Marshal(in)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			log.Fatal(err)
		}
	}
}

// cloneSubs deep-copies the subgraphs so each training run starts pristine.
func cloneSubs(subs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(subs))
	for i, g := range subs {
		out[i] = g.Clone()
	}
	return out
}
