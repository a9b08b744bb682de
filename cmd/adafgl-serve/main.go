// Command adafgl-serve serves node-classification queries from trained
// AdaFGL model checkpoints over HTTP. It fronts a model registry
// (internal/registry): one or many checkpoint artifacts keyed by
// name@version, each lazily started as a batching inference server
// (internal/serve) under an LRU bound, with zero-downtime version swaps and
// an A/B traffic splitter.
//
// Usage:
//
//	adafgl-serve -ckpt model.ckpt -addr :8080
//	adafgl-serve -model-dir zoo/
//	adafgl-serve -model-dir zoo/ -batch 128 -batch-wait 1ms -max-loaded 2
//
// -ckpt registers a single artifact (filename stem "name@3.ckpt" carries the
// name and version; a bare stem is version 1). -model-dir scans a directory
// of *.ckpt artifacts. Both may be combined. The directory scan is lenient by
// default: unreadable or corrupt artifacts are quarantined (logged at
// startup, listed under "quarantined" in GET /v1/models) and the healthy rest
// serve; -strict-scan restores fail-fast startup.
//
// An artifact carries its answer: checkpoint format version 2 stores the
// model's full-graph logits table, filled once when the artifact was
// exported, and a model's cold start reads that table and runs no model
// code — so -workers, kept for symmetry with the other binaries, changes
// nothing here. An artifact of format version 1 has no table and is refused
// as corrupt; re-export it from its training run (checkpoint.FromResult).
//
// Resilience knobs: -max-pending bounds the per-model admission queue (excess
// requests shed with 503 + Retry-After), -request-timeout enforces a
// server-side deadline (504), and -breaker-threshold/-breaker-backoff/
// -breaker-max-backoff govern the per-model circuit breaker (consecutive
// failures trip the model; it fails fast with 503 until a jittered,
// exponentially growing window elapses and a half-open probe succeeds).
// -read-header-timeout, -read-timeout and -idle-timeout harden the listener
// against slow or stuck connections.
//
// Observability: logs go to stderr via log/slog (-log-format json switches to
// one JSON object per line); 5xx responses are logged with the request's
// trace ID (X-Trace-Id, honoured when the client sends one). GET /v1/metrics
// exposes the process-wide telemetry registry in Prometheus text format,
// including Go runtime gauges. -pprof-addr starts a side listener with the
// standard net/http/pprof handlers plus GET /debug/runtime, a JSON snapshot
// of every scalar runtime/metrics sample. Telemetry never alters results:
// predictions are bit-identical with it enabled or disabled.
//
// The HTTP surface is registry.Handler — the /v1 route table in README.md
// and internal/registry/http.go — and nothing else.
//
// On SIGINT/SIGTERM the listener stops accepting, in-flight HTTP requests
// get a grace period, and every model's batch queue is drained before exit —
// no admitted query is dropped.
//
// Produce checkpoints with examples/quickstart -save or examples/model-zoo,
// or any training run via checkpoint.FromResult.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// newLogger builds the process logger on stderr in the selected format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// statusWriter captures the response status so the error log can report it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// logErrors logs every 5xx response with its trace ID. It wraps OUTSIDE the
// registry handler, whose TraceHTTP middleware stamps X-Trace-Id on the
// response before the handlers run, so the ID is available here afterwards.
func logErrors(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.status >= 500 {
			logger.Error("request failed",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"trace", w.Header().Get(telemetry.TraceHeader))
		}
	})
}

// pprofMux builds the -pprof-addr side surface: the standard net/http/pprof
// handlers plus a JSON snapshot of every scalar runtime/metrics sample.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(telemetry.RuntimeSnapshot())
	})
	return mux
}

func main() {
	var (
		ckptPath  = flag.String("ckpt", "", "single checkpoint file to register (stem \"name@3.ckpt\" sets name and version)")
		modelDir  = flag.String("model-dir", "", "directory of *.ckpt artifacts to register")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		batch     = flag.Int("batch", serve.DefaultMaxBatch, "max queried nodes coalesced per batch window (1 disables batching)")
		batchWait = flag.Duration("batch-wait", serve.DefaultMaxWait, "max time the first request of a window waits for company (0 = flush as soon as the queue drains)")
		maxLoaded = flag.Int("max-loaded", registry.DefaultMaxLoaded, "max concurrently started model servers (LRU drains idle ones)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight HTTP requests")

		maxPending  = flag.Int("max-pending", serve.DefaultMaxPending, "admission-control budget: max queued nodes per model before sheds (503); negative disables")
		reqTimeout  = flag.Duration("request-timeout", 0, "server-side deadline per predict request (504 past it); 0 disables, explicit client deadlines still apply")
		strictScan  = flag.Bool("strict-scan", false, "fail startup on any unreadable -model-dir artifact instead of quarantining it")
		brkThresh   = flag.Int("breaker-threshold", registry.DefaultBreakerThreshold, "consecutive model failures before the circuit breaker trips; negative disables")
		brkBackoff  = flag.Duration("breaker-backoff", registry.DefaultBreakerBackoff, "initial trip window (doubles per re-trip, jittered, capped by -breaker-max-backoff)")
		brkBackMax  = flag.Duration("breaker-max-backoff", registry.DefaultBreakerMaxBackoff, "upper bound on the breaker trip window")
		readHdrWait = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout: max wait for request headers (slowloris guard)")
		readWait    = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: max wait for a full request read")
		idleWait    = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: max keep-alive idle time per connection")

		logFormat = flag.String("log-format", "text", "log output format: text or json (one object per line)")
		pprofAddr = flag.String("pprof-addr", "", "side listen address for net/http/pprof and /debug/runtime (empty disables)")
	)
	parallel.RegisterFlag(flag.CommandLine)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	slog.SetDefault(logger)
	telemetry.RegisterRuntimeGauges(telemetry.Default())
	if *ckptPath == "" && *modelDir == "" {
		fmt.Fprintln(os.Stderr, "missing -ckpt or -model-dir")
		flag.Usage()
		os.Exit(2)
	}

	reg := registry.New(registry.Options{
		Serve: serve.Options{
			MaxBatch:       *batch,
			MaxWait:        *batchWait,
			MaxPending:     *maxPending,
			RequestTimeout: *reqTimeout,
		},
		MaxLoaded:   *maxLoaded,
		LenientScan: !*strictScan,
		Breaker: registry.BreakerOptions{
			Threshold:  *brkThresh,
			Backoff:    *brkBackoff,
			MaxBackoff: *brkBackMax,
		},
	})
	start := time.Now()
	if *modelDir != "" {
		if _, err := reg.LoadDir(*modelDir); err != nil {
			logger.Error("model-dir scan failed", "dir", *modelDir, "error", err)
			os.Exit(1)
		}
		for _, q := range reg.Quarantined() {
			logger.Warn("quarantined artifact",
				"path", q.Path, "reason", q.Reason, "error", q.Error)
		}
	}
	if *ckptPath != "" {
		if _, err := reg.AddFile(*ckptPath); err != nil {
			logger.Error("checkpoint load failed", "path", *ckptPath, "error", err)
			os.Exit(1)
		}
	}
	infos := reg.List()
	for _, info := range infos {
		logger.Info("registered model",
			"model", fmt.Sprintf("%s@%d", info.Name, info.Version),
			"active", info.Active, "arch", info.Arch,
			"nodes", info.Nodes, "classes", info.Classes,
			"params", info.Params, "path", info.Path)
	}
	logger.Info("registry ready",
		"artifacts", len(infos),
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"max_loaded", *maxLoaded, "batch", *batch, "batch_wait", batchWait.String())

	if *pprofAddr != "" {
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           logErrors(logger, reg.Handler()),
		ReadHeaderTimeout: *readHdrWait,
		ReadTimeout:       *readWait,
		IdleTimeout:       *idleWait,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, give in-flight HTTP requests a
	// deadline, then drain every model's batch queue via the registry.
	logger.Info("shutting down", "grace", grace.String())
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *grace)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
	reg.Close()
	logger.Info("drained; bye")
}
