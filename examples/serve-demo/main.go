// Serve-demo is the end-to-end field check of the model lifecycle: train a
// federated GCN at quickstart scale, persist it as a checkpoint, register the
// file in a one-model registry, expose the registry's v1 API on a loopback
// port and fire 1000 concurrent node-classification queries at it — every
// HTTP answer is cross-checked bit-for-bit against the in-process Go API.
// GET /v1/metrics is then scraped and its Prometheus exposition validated
// structurally, with the serving-layer families required present.
// `make serve-demo` runs exactly this.
package main

import (
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
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// queries is the concurrent load of the field check.
const queries = 1000

func main() {
	parallel.RegisterFlag(flag.CommandLine)
	batch := flag.Int("batch", serve.DefaultMaxBatch, "serving batch-window node budget")
	flag.Parse()

	// 1. Train at quickstart scale.
	spec, err := datasets.ByName("Cora")
	if err != nil {
		log.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.5, 42)
	cd := partition.CommunitySplit(g, 5, rand.New(rand.NewSource(7)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	clients := federated.BuildClients(cd.Subgraphs, models.Registry["GCN"], cfg, 1)
	opt := federated.DefaultOptions()
	start := time.Now()
	res, err := federated.Run(clients, 2, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained federated GCN over %d nodes in %v (test acc %.3f)\n",
		g.N, time.Since(start).Round(time.Millisecond), res.TestAcc)

	// 2. Persist the checkpoint; the registry below serves it from the file
	// (the round trip is the point).
	dir, err := os.MkdirTemp("", "adafgl-serve-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	ck, err := checkpoint.FromResult(res, "GCN", cfg, g)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkpoint.Save(path, ck); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("checkpoint: %s (%d bytes)\n", path, fi.Size())

	// 3. Serve it over HTTP on a loopback port: "model.ckpt" registers as
	// model@1, and the held handle is the in-process API of that instance.
	reg := registry.New(registry.Options{
		Serve: serve.Options{MaxBatch: *batch, MaxWait: 2 * time.Millisecond},
	})
	defer reg.Close()
	if _, err := reg.AddFile(path); err != nil {
		log.Fatal(err)
	}
	h, err := reg.Acquire("model")
	if err != nil {
		log.Fatal(err)
	}
	defer h.Release()
	srv := h.Server()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: reg.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := fmt.Sprintf("http://%s/v1", ln.Addr())
	fmt.Printf("serving on %s\n", base)

	// Reference answers via the Go API, one full-graph window (bit-identical
	// to every batched answer by the serving determinism contract).
	all, err := srv.PredictAll()
	if err != nil {
		log.Fatal(err)
	}
	ref := make(map[int]serve.Prediction, len(all))
	for _, p := range all {
		ref[p.Node] = p
	}

	// 4. Fire the concurrent query storm over HTTP and cross-check.
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	errCh := make(chan error, queries)
	start = time.Now()
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := (q * 37) % g.N
			resp, err := client.Get(fmt.Sprintf("%s/models/model/predict?node=%d", base, node))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			var pr serve.PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				errCh <- err
				return
			}
			if len(pr.Predictions) != 1 {
				errCh <- fmt.Errorf("node %d: %d predictions", node, len(pr.Predictions))
				return
			}
			got, want := pr.Predictions[0], ref[node]
			if got.Class != want.Class {
				errCh <- fmt.Errorf("node %d: class %d over HTTP, %d in-process", node, got.Class, want.Class)
				return
			}
			for j := range want.Logits {
				if got.Logits[j] != want.Logits[j] {
					errCh <- fmt.Errorf("node %d: logit %d drifted over HTTP", node, j)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		log.Fatal(err)
	}

	stats, err := reg.Stats("model")
	if err != nil {
		log.Fatal(err)
	}
	st := stats.Versions["1"]
	fmt.Printf("%d concurrent HTTP queries in %v (%.0f q/s end-to-end)\n",
		queries, elapsed.Round(time.Millisecond), float64(queries)/elapsed.Seconds())
	fmt.Printf("registry stats model@1: %d requests / %d nodes, accuracy %.3f, p50 %v, p99 %v\n",
		st.Requests, st.Nodes, st.Accuracy, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
	if st.Requests != queries {
		log.Fatalf("registry counted %d requests, want the storm's %d", st.Requests, queries)
	}
	fmt.Println("all HTTP answers bit-identical to the in-process API: ok")

	// 5. Scrape /v1/metrics after the storm: the exposition must parse as
	// Prometheus text format and carry the serving-layer families the storm
	// just exercised — a malformed scrape fails the demo.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	if err := telemetry.CheckExposition(expo); err != nil {
		log.Fatalf("/v1/metrics exposition malformed: %v", err)
	}
	for _, fam := range []string{
		"adafgl_serve_requests_total",
		"adafgl_serve_batches_total",
		"adafgl_serve_request_latency_seconds",
		"adafgl_parallel_pool_tasks_total",
	} {
		if !telemetry.HasFamily(expo, fam) {
			log.Fatalf("/v1/metrics missing family %s", fam)
		}
	}
	fmt.Printf("scraped /v1/metrics: %d bytes, exposition valid, serving families present\n", len(expo))
}
