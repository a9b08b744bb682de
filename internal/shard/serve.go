package shard

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// label routes a global node id to its owner shard's label table.
func (sh *Sharded) label(v int) (int, bool) {
	if v < 0 || v >= sh.Plan.N() {
		return 0, false
	}
	s := sh.Shards[sh.Plan.Owner(v)]
	if s.Labels == nil {
		return 0, false
	}
	return s.Labels[sh.Plan.LocalID(v)], true
}

// shardSource exposes one shard as a graph.NodeSource (local ids): the node
// universe a per-shard serve.Server validates and answers against.
type shardSource struct {
	s       *Shard
	classes int
}

func (src shardSource) NumNodes() int   { return len(src.s.Nodes) }
func (src shardSource) NumClasses() int { return src.classes }
func (src shardSource) Label(local int) (int, bool) {
	if src.s.Labels == nil || local < 0 || local >= len(src.s.Labels) {
		return 0, false
	}
	return src.s.Labels[local], true
}

// globalSource exposes the whole sharded set as one graph.NodeSource
// (global ids) — the universe the coupled window server serves.
type globalSource struct{ sh *Sharded }

func (src globalSource) NumNodes() int           { return src.sh.Plan.N() }
func (src globalSource) NumClasses() int         { return src.sh.Classes }
func (src globalSource) Label(v int) (int, bool) { return src.sh.label(v) }

// windowModel adapts a sharded message-passing pipeline to models.Model, so
// one serve.Server can batch over it: every Logits call runs the full
// halo-exchanged Forward across the shards and reassembles the global logit
// matrix — which the server does once, in its first window, and gathers rows
// from afterwards. It is inference-only — it carries no parameters and cannot
// train.
type windowModel struct {
	sh     *Sharded
	layers []models.InferenceLayer
}

func (m *windowModel) Params() []*nn.Parameter { return nil }

func (m *windowModel) Logits(train bool) *matrix.Dense {
	return m.LogitsCtx(context.Background(), train)
}

// LogitsCtx implements serve.CtxModel: the batching window's context (and
// with it the request's telemetry trace) threads into the halo-exchanged
// forward, so exchange spans join the trace that opened the window. The
// computation is exactly Logits.
func (m *windowModel) LogitsCtx(ctx context.Context, train bool) *matrix.Dense {
	locals := m.sh.ForwardCtx(ctx, m.layers)
	out := matrix.New(m.sh.Plan.N(), locals[0].Cols)
	for i, s := range m.sh.Shards {
		for l, v := range s.Nodes {
			copy(out.Row(v), locals[i].Row(l))
		}
	}
	return out
}

func (m *windowModel) Backward(grad *matrix.Dense) {
	panic("shard: windowModel is inference-only")
}

// Server routes node-classification queries across per-shard serving
// instances: each shard runs its own serve.Server over its local embedding
// slab, and the router sends every queried node to its owner, reassembling
// answers in query order with global node ids. It implements
// serve.Predictor, so the registry's swap/LRU/breaker machinery and the v1
// HTTP API drive a sharded fleet exactly like a single-process server.
type Server struct {
	sh    *Sharded
	arch  string
	subs  []*serve.Server
	route []routeSeries // per-owner fan-out counters, resolved once
}

// NewFromParts starts a sharded decoupled server from an already-built
// shard set: the embedding recipe is replayed shard-locally (halo exchange
// at the boundaries), and each shard serves its slab behind the shared
// head. The head weights are shared — in a real fleet they are broadcast
// once, dwarfed by the per-shard slabs.
func NewFromParts(sh *Sharded, arch string, head []models.HeadLayer, spec models.EmbeddingSpec, opt serve.Options) (*Server, error) {
	if sh == nil {
		return nil, fmt.Errorf("shard: NewFromParts: nil shard set")
	}
	if sh.Norm != spec.Norm {
		return nil, fmt.Errorf("shard: NewFromParts: shards built with norm %v, spec wants %v", sh.Norm, spec.Norm)
	}
	locals, err := sh.Embedding(spec.Hops, spec.HopWeights)
	if err != nil {
		return nil, fmt.Errorf("shard: NewFromParts: %w", err)
	}
	s := &Server{
		sh: sh, arch: arch,
		subs:  make([]*serve.Server, len(sh.Shards)),
		route: newRouteSeries(len(sh.Shards)),
	}
	for i, shd := range sh.Shards {
		sub, err := serve.NewFromFactors(shardSource{s: shd, classes: sh.Classes}, locals[i], head, arch, opt)
		if err != nil {
			for _, prev := range s.subs[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: NewFromParts: shard %d: %w", i, err)
		}
		s.subs[i] = sub
	}
	return s, nil
}

// NewServer builds a sharded Predictor from a checkpoint: the graph is
// METIS-planned into the given shard count and served shard-aware. With one
// shard it returns the plain single-process server — the degenerate fleet —
// so predictions on any graph that fits in one shard are trivially
// bit-identical to the unsharded path. Decoupled architectures route
// queries to per-shard embedding caches (bit-identical to unsharded at
// every shard count); message-passing architectures batch through a
// halo-exchanged window engine (bit-identical across shard counts).
func NewServer(ck *checkpoint.Checkpoint, shards int, opt serve.Options) (serve.Predictor, error) {
	if ck == nil {
		return nil, fmt.Errorf("shard: NewServer: nil checkpoint")
	}
	if shards <= 1 {
		return serve.New(ck, opt)
	}
	m, err := ck.Model(opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: NewServer: %w", err)
	}
	plan, err := PlanFromGraph(ck.Graph, shards, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: NewServer: %w", err)
	}
	switch mm := m.(type) {
	case models.ShardableDecoupled:
		spec := mm.EmbeddingSpec()
		sh, err := BuildFromGraph(ck.Graph, plan, spec.Norm)
		if err != nil {
			return nil, fmt.Errorf("shard: NewServer: %w", err)
		}
		_, head := mm.InferenceFactors()
		return NewFromParts(sh, ck.Arch, head, spec, opt)
	case models.Layered:
		sh, err := BuildFromGraph(ck.Graph, plan, mm.PropagationNorm())
		if err != nil {
			return nil, fmt.Errorf("shard: NewServer: %w", err)
		}
		return serve.NewFromModel(globalSource{sh}, &windowModel{sh: sh, layers: mm.InferenceLayers()}, ck.Arch, opt)
	}
	return nil, fmt.Errorf("shard: NewServer: architecture %q is neither decoupled nor layered", ck.Arch)
}

// Predict classifies global node ids, routing each to its owner shard.
// Results come back in query order with global ids; per-node answers are
// bit-identical to the unsharded server's at every shard count.
func (s *Server) Predict(nodes []int) ([]serve.Prediction, error) {
	return s.PredictCtx(context.Background(), nodes)
}

// PredictCtx is Predict under a caller context; deadlines and admission
// control apply per owner-shard sub-request.
func (s *Server) PredictCtx(ctx context.Context, nodes []int) ([]serve.Prediction, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: Predict: empty node list")
	}
	n := s.sh.Plan.N()
	for _, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("shard: Predict: node %d outside graph of %d nodes", v, n)
		}
	}
	shards := s.sh.Plan.NumShards()
	locals := make([][]int, shards)
	at := make([][]int, shards)
	for i, v := range nodes {
		o := s.sh.Plan.Owner(v)
		locals[o] = append(locals[o], s.sh.Plan.LocalID(v))
		at[o] = append(at[o], i)
	}
	fanout := 0
	if id, ok := telemetry.TraceFrom(ctx); ok {
		sp := telemetry.DefaultTracer().Span(id, "shard.route")
		defer func() { sp.Attr("shards", fanout).Attr("nodes", len(nodes)).End() }()
	}
	out := make([]serve.Prediction, len(nodes))
	for o := 0; o < shards; o++ {
		if len(locals[o]) == 0 {
			continue
		}
		fanout++
		s.route[o].requests.Inc()
		s.route[o].nodes.Add(uint64(len(locals[o])))
		preds, err := s.subs[o].PredictCtx(ctx, locals[o])
		if err != nil {
			return nil, err
		}
		for j, p := range preds {
			p.Node = nodes[at[o][j]]
			out[at[o][j]] = p
		}
	}
	return out, nil
}

// PredictAll classifies every node of the sharded graph.
func (s *Server) PredictAll() ([]serve.Prediction, error) {
	nodes := make([]int, s.sh.Plan.N())
	for i := range nodes {
		nodes[i] = i
	}
	return s.Predict(nodes)
}

// Arch returns the served architecture's registry name.
func (s *Server) Arch() string { return s.arch }

// Nodes returns the total node count across shards.
func (s *Server) Nodes() int { return s.sh.Plan.N() }

// Classes returns the number of output classes.
func (s *Server) Classes() int { return s.sh.Classes }

// Decoupled reports true: the routed path always serves embedding caches.
func (s *Server) Decoupled() bool { return true }

// Label routes a global node id to its owner shard's label table.
func (s *Server) Label(node int) (int, bool) { return s.sh.label(node) }

// Stats aggregates the per-shard serving metrics into one fleet snapshot:
// counters sum, latency percentiles take the worst shard (a query is as
// slow as the shard that answers it), and throughput is total nodes over
// the longest-running shard's window.
func (s *Server) Stats() serve.Snapshot {
	var agg serve.Snapshot
	for _, sub := range s.subs {
		snap := sub.Stats()
		agg.Requests += snap.Requests
		agg.Nodes += snap.Nodes
		agg.Batches += snap.Batches
		agg.Shed += snap.Shed
		agg.Deadlines += snap.Deadlines
		agg.Panics += snap.Panics
		if snap.P50 > agg.P50 {
			agg.P50 = snap.P50
		}
		if snap.P99 > agg.P99 {
			agg.P99 = snap.P99
		}
		if snap.Elapsed > agg.Elapsed {
			agg.Elapsed = snap.Elapsed
		}
	}
	if agg.Batches > 0 {
		agg.MeanBatch = float64(agg.Nodes) / float64(agg.Batches)
	}
	if agg.Elapsed > 0 {
		agg.QueriesPerSec = float64(agg.Nodes) / agg.Elapsed.Seconds()
	}
	return agg
}

// Drain gracefully retires every shard server.
func (s *Server) Drain() {
	for _, sub := range s.subs {
		sub.Drain()
	}
}

// Close stops every shard server.
func (s *Server) Close() {
	for _, sub := range s.subs {
		sub.Close()
	}
}
