// Package checkpoint gives trained AdaFGL models a life beyond the training
// process: a versioned, deterministic binary serialization (magic/version
// header, little-endian fixed-width fields, CRC-guarded sections) for a
// model's architecture, hyperparameters, normalisation kind and flattened
// parameters together with the graph it serves — topology, features, labels,
// masks, and optionally the precomputed normalised adjacency in CSR form so
// loading skips the normalisation pass — and the model's answer on that
// graph, the N×C logits table, filled once at export so that serving it runs
// no model code. Save→Load round-trips are bit-identical (enforced by unit
// tests and FuzzCheckpointRoundTrip), models self-describe through the
// models.Registry architecture names, and federated training results become
// servable artifacts via FromResult.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// ErrCorrupt marks a structurally invalid, truncated or CRC-damaged
// checkpoint artifact. Every Decode, Load and Peek failure caused by the
// artifact's bytes (as opposed to the filesystem) wraps it, so registry-layer
// callers can errors.Is-classify "this file is bad" apart from "this file is
// unreachable" when deciding to quarantine. Test with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt artifact")

// corruptError tags an error as artifact corruption without altering its
// message: errors.Is(err, ErrCorrupt) holds, and the named-op text the
// decode/peek paths produced stays byte-identical.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return e.err.Error() }

func (e *corruptError) Unwrap() error { return e.err }

func (e *corruptError) Is(target error) bool { return target == ErrCorrupt }

// corrupt wraps err as a corruptError; nil stays nil.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	return &corruptError{err: err}
}

// Checkpoint is one persisted model+graph artifact: everything needed to
// rebuild a node classifier, and the answer it serves. Arch names a
// models.Registry builder (the self-description hook shared by core and fgl
// training paths), Params is the nn.Flatten layout of that architecture,
// Graph is the graph the model is bound to and Logits the model's full-graph
// answer on it. Adj, when non-nil, is the cached
// WithSelfLoops().Normalized(Norm) adjacency of Graph, letting Model() seed
// the propagation-plan cache instead of renormalising at load.
type Checkpoint struct {
	// Arch is the models.Registry architecture name (e.g. "GCN", "SGC").
	Arch string
	// Config carries the architecture hyperparameters the model was built
	// with; Model() rebuilds with exactly these.
	Config models.Config
	// Norm is the adjacency normalisation the model propagates with.
	Norm sparse.NormKind
	// Params is the trained parameter vector in nn.Flatten order.
	Params []float64
	// Graph is the serving graph (topology, features, labels, masks).
	Graph *graph.Graph
	// Adj optionally caches Graph's normalised adjacency (CSR) for Norm.
	Adj *sparse.CSR
	// Logits is the served answer: the Graph.N × Graph.Classes logits table
	// FromResult filled and Decode reads back. Table returns it.
	Logits *matrix.Dense
}

// FromResult packages a federated training result as a servable checkpoint:
// the aggregated global parameters of res, self-described by the registry
// architecture they were trained as, bound to g (typically the full graph
// when clients trained on subgraphs of it — the transductive serving
// surface). The graph's symmetric-normalised adjacency is embedded in CSR
// form so loading skips normalisation, and the model's logits table is filled
// here, once (fillTable), so that serving the artifact never runs the model.
// Both core.AdaFGL (whose Result carries the Step-1 knowledge extractor) and
// the fgl wrappers produce a compatible Result.
func FromResult(res *federated.Result, arch string, cfg models.Config, g *graph.Graph) (*Checkpoint, error) {
	if res == nil || len(res.GlobalParams) == 0 {
		return nil, fmt.Errorf("checkpoint: FromResult: result has no global parameters")
	}
	if g == nil {
		return nil, fmt.Errorf("checkpoint: FromResult: nil graph")
	}
	if _, err := models.BuilderFor(arch); err != nil {
		return nil, fmt.Errorf("checkpoint: FromResult: %w", err)
	}
	params := append([]float64(nil), res.GlobalParams...)
	c := &Checkpoint{
		Arch: arch, Config: cfg, Norm: sparse.NormSym,
		Params: params, Graph: g, Adj: g.NormAdj(sparse.NormSym),
	}
	table, err := c.fillTable()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: FromResult: %w", err)
	}
	c.Logits = table
	return c, nil
}

// fillTable is the one fill recipe for the N×C logits table Alg. 2 calls Ẑ,
// one row of class scores per graph node. It rebuilds the model (Model) and
// runs its full-graph inference once: the forward Logits(false) for a
// message-passing architecture, models.ApplyHead over every row of the
// propagated embedding for a models.Decoupled one. The decoupled table is
// ApplyHead, not Logits: its fixed per-row accumulation order makes a row's
// answer independent of which rows it is computed with, so a table assembled
// shard by shard (shard.Table) lands on the same bits. A fill that panics is
// recovered and returned as an error, so a model bug fails the export instead
// of the process that runs it.
func (c *Checkpoint) fillTable() (table *matrix.Dense, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			table, err = nil, fmt.Errorf("table fill panicked: %v", rec)
		}
	}()
	// The builder's RNG only draws initial weights, which Unflatten
	// overwrites, and training-time dropout: the seed cannot reach the table.
	m, err := c.Model(1)
	if err != nil {
		return nil, err
	}
	if dec, ok := m.(models.Decoupled); ok {
		emb, head := dec.InferenceFactors()
		return models.ApplyHead(head, emb), nil
	}
	return m.Logits(false), nil
}

// Model rebuilds the trained model: the registry builder for Arch is bound
// to Graph (seeding its propagation-plan cache from Adj when present) and
// loaded with Params. seed drives the builder's RNG; it only affects
// training-time dropout, never inference outputs. Serving does not call it:
// the answer is the stored table (Table).
func (c *Checkpoint) Model(seed int64) (models.Model, error) {
	build, err := models.BuilderFor(c.Arch)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: Model: %w", err)
	}
	if c.Graph == nil {
		return nil, fmt.Errorf("checkpoint: Model: checkpoint has no graph")
	}
	if c.Adj != nil {
		if c.Adj.NRows != c.Graph.N || c.Adj.NCols != c.Graph.N {
			return nil, fmt.Errorf("checkpoint: Model: cached adjacency is %dx%d for a %d-node graph",
				c.Adj.NRows, c.Adj.NCols, c.Graph.N)
		}
		c.Graph.SeedNormAdj(c.Norm, c.Adj)
	}
	m := build(c.Graph, c.Config, rand.New(rand.NewSource(seed)))
	if err := nn.Unflatten(m, c.Params); err != nil {
		return nil, fmt.Errorf("checkpoint: Model: parameters do not fit %s: %w", c.Arch, err)
	}
	return m, nil
}

// Table is the checkpoint's served answer: the N×C logits table, one row of
// class scores per graph node, that FromResult filled at export and Decode
// read back from the table section. It runs no model code. The caller must
// not write the table; a server keeps it as its whole answer state.
func (c *Checkpoint) Table() (*matrix.Dense, error) {
	if err := c.checkTable(); err != nil {
		return nil, fmt.Errorf("checkpoint: Table: %w", err)
	}
	return c.Logits, nil
}

// checkTable reports whether the checkpoint carries a logits table of its
// graph's shape.
func (c *Checkpoint) checkTable() error {
	switch {
	case c.Graph == nil:
		return errors.New("checkpoint has no graph")
	case c.Logits == nil:
		return errors.New("checkpoint has no logits table")
	case c.Logits.Rows != c.Graph.N || c.Logits.Cols != c.Graph.Classes:
		return fmt.Errorf("logits table is %dx%d for a %d-node, %d-class graph",
			c.Logits.Rows, c.Logits.Cols, c.Graph.N, c.Graph.Classes)
	}
	return nil
}

// Encode serialises the checkpoint into the versioned binary container.
// Encoding is deterministic: equal checkpoints produce equal bytes.
func (c *Checkpoint) Encode() ([]byte, error) {
	if err := c.checkTable(); err != nil {
		return nil, fmt.Errorf("checkpoint: Encode: %w", err)
	}
	if c.Graph.X != nil && c.Graph.X.Rows != c.Graph.N {
		return nil, fmt.Errorf("checkpoint: Encode: features have %d rows for %d nodes", c.Graph.X.Rows, c.Graph.N)
	}
	var w writer
	w.buf = append(w.buf, Magic...)
	w.u32(Version)
	sections := uint32(3)
	if c.Adj != nil {
		sections++
	}
	w.u32(sections)

	w.section(secModel, func(p *writer) {
		p.str(c.Arch)
		p.u64(uint64(c.Config.Hidden))
		p.f64(c.Config.Dropout)
		p.u64(uint64(c.Config.Hops))
		p.f64(c.Config.Alpha)
		p.f64(c.Config.LR)
		p.f64(c.Config.WeightDecay)
		p.u32(uint32(c.Norm))
		p.f64s(c.Params)
	})
	w.section(secGraph, func(p *writer) {
		g := c.Graph
		p.u64(uint64(g.N))
		p.u64(uint64(g.Classes))
		p.u64(uint64(len(g.Edges)))
		for _, e := range g.Edges {
			p.u64(uint64(e[0]))
			p.u64(uint64(e[1]))
		}
		if g.X == nil {
			p.u8(0)
		} else {
			p.u8(1)
			p.u64(uint64(g.X.Rows))
			p.u64(uint64(g.X.Cols))
			p.f64s(g.X.Data)
		}
		if g.Labels == nil {
			p.u8(0)
		} else {
			p.u8(1)
			p.ints(g.Labels)
		}
		p.bools(g.TrainMask)
		p.bools(g.ValMask)
		p.bools(g.TestMask)
	})
	if c.Adj != nil {
		w.section(secAdj, func(p *writer) {
			p.u64(uint64(c.Adj.NRows))
			p.u64(uint64(c.Adj.NCols))
			p.ints(c.Adj.RowPtr)
			p.ints(c.Adj.ColIdx)
			p.f64s(c.Adj.Val)
		})
	}
	w.section(secTable, func(p *writer) {
		p.u64(uint64(c.Logits.Rows))
		p.u64(uint64(c.Logits.Cols))
		p.f64s(c.Logits.Data)
	})
	return w.buf, nil
}

// Decode parses a checkpoint from its binary encoding, validating the magic,
// version, section CRCs and every structural invariant. Corrupt or truncated
// input yields a named-op error wrapping ErrCorrupt, never a panic.
func Decode(data []byte) (*Checkpoint, error) {
	c, err := decode(data)
	if err != nil {
		return nil, corrupt(err)
	}
	return c, nil
}

// decode is Decode without the ErrCorrupt tagging: every failure below is by
// construction a property of the artifact's bytes.
func decode(data []byte) (*Checkpoint, error) {
	r := &reader{data: data}
	if !r.need(len(Magic)) {
		return nil, r.err
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: Decode: bad magic %q", data[:len(Magic)])
	}
	r.off = len(Magic)
	if v := r.u32(); r.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: Decode: unsupported version %d (have %d)", v, Version)
	}
	nSec := r.u32()
	if r.err != nil {
		return nil, r.err
	}

	c := &Checkpoint{}
	var seenModel, seenGraph bool
	lastKind := uint32(0)
	for i := uint32(0); i < nSec; i++ {
		kind, p := r.sectionReader()
		if r.err != nil {
			return nil, r.err
		}
		if kind <= lastKind {
			return nil, fmt.Errorf("checkpoint: Decode: section kind %d out of order after %d", kind, lastKind)
		}
		lastKind = kind
		switch kind {
		case secModel:
			decodeModel(p, c)
			seenModel = true
		case secGraph:
			decodeGraph(p, c)
			seenGraph = true
		case secAdj:
			decodeAdj(p, c)
		case secTable:
			decodeTable(p, c)
		default:
			return nil, fmt.Errorf("checkpoint: Decode: unknown section kind %d", kind)
		}
		if p.err != nil {
			return nil, p.err
		}
		if p.off != len(p.data) {
			return nil, fmt.Errorf("checkpoint: Decode: section %d has %d trailing bytes", kind, len(p.data)-p.off)
		}
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("checkpoint: Decode: %d trailing bytes after last section", len(r.data)-r.off)
	}
	if !seenModel {
		return nil, fmt.Errorf("checkpoint: Decode: missing model section")
	}
	if !seenGraph {
		return nil, fmt.Errorf("checkpoint: Decode: missing graph section")
	}
	if c.Adj != nil && (c.Adj.NRows != c.Graph.N || c.Adj.NCols != c.Graph.N) {
		return nil, fmt.Errorf("checkpoint: Decode: adjacency section is %dx%d for a %d-node graph",
			c.Adj.NRows, c.Adj.NCols, c.Graph.N)
	}
	if err := c.checkTable(); err != nil {
		return nil, fmt.Errorf("checkpoint: Decode: %w", err)
	}
	return c, nil
}

// Sanity caps on decoded hyperparameters: a CRC-valid but hostile file must
// not make the registry builder allocate enormous weight matrices or run
// billions of propagation steps before Model() can notice the parameter
// vector does not fit. The caps are far above anything the architectures
// use (paper scale: hidden 64, hops 3).
const (
	maxHidden = 1 << 20
	maxHops   = 1 << 12
)

// decodeModel parses the model section into c.
func decodeModel(p *reader, c *Checkpoint) {
	c.Arch = p.str()
	c.Config.Hidden = p.dim("hidden")
	if p.err == nil && c.Config.Hidden > maxHidden {
		p.fail("hidden width %d exceeds cap %d", c.Config.Hidden, maxHidden)
		return
	}
	c.Config.Dropout = p.f64()
	c.Config.Hops = p.dim("hops")
	if p.err == nil && c.Config.Hops > maxHops {
		p.fail("hop count %d exceeds cap %d", c.Config.Hops, maxHops)
		return
	}
	c.Config.Alpha = p.f64()
	c.Config.LR = p.f64()
	c.Config.WeightDecay = p.f64()
	norm := p.u32()
	if p.err == nil {
		if norm > uint32(sparse.NormReverse) {
			p.fail("unknown NormKind %d", norm)
			return
		}
		c.Norm = sparse.NormKind(norm)
	}
	c.Params = p.f64s("params")
}

// decodeGraph parses the graph section into c, validating every index
// against the declared node count so graph construction cannot panic.
func decodeGraph(p *reader, c *Checkpoint) {
	n := p.dim("node count")
	classes := p.dim("class count")
	if p.err == nil && classes > maxHidden {
		p.fail("class count %d exceeds cap %d", classes, maxHidden)
		return
	}
	nEdges := p.count(16, "edge")
	raw := p.take(16 * nEdges)
	if p.err != nil {
		return
	}
	edges := make([][2]int, nEdges)
	for i := range edges {
		u := binary.LittleEndian.Uint64(raw[16*i:])
		v := binary.LittleEndian.Uint64(raw[16*i+8:])
		// One unsigned compare per endpoint covers both the dimension cap
		// and the node range: n itself passed dim's cap.
		if u >= uint64(n) || v >= uint64(n) {
			p.fail("edge %d = {%d,%d} outside %d-node graph", i, u, v, n)
			return
		}
		edges[i] = [2]int{int(u), int(v)}
	}
	var x *matrix.Dense
	if p.u8() == 1 {
		rows, cols := p.dim("feature rows"), p.dim("feature cols")
		if p.err != nil {
			return
		}
		if rows != n {
			p.fail("feature matrix has %d rows for %d nodes", rows, n)
			return
		}
		vals := p.f64s("feature")
		if p.err != nil {
			return
		}
		if len(vals) != rows*cols {
			p.fail("feature matrix %dx%d carries %d values", rows, cols, len(vals))
			return
		}
		x = matrix.FromSlice(rows, cols, vals)
	}
	var labels []int
	if p.err == nil && p.u8() == 1 {
		labels = p.ints("label")
		if p.err == nil && len(labels) != n {
			p.fail("%d labels for %d nodes", len(labels), n)
			return
		}
		// Downstream consumers index by label (one-hot encoding, class
		// histograms), so out-of-range values must die here, not there.
		if p.err == nil && n > 0 && classes <= 0 {
			p.fail("%d labelled nodes with class count %d", n, classes)
			return
		}
		for i, l := range labels {
			if l < 0 || l >= classes {
				p.fail("label %d at node %d outside [0, %d)", l, i, classes)
				return
			}
		}
	}
	train := p.bools("train")
	val := p.bools("val")
	test := p.bools("test")
	if p.err != nil {
		return
	}
	if len(train) != n || len(val) != n || len(test) != n {
		p.fail("mask lengths %d/%d/%d for %d nodes", len(train), len(val), len(test), n)
		return
	}
	g := graph.New(n, edges, x, labels, classes)
	copy(g.TrainMask, train)
	copy(g.ValMask, val)
	copy(g.TestMask, test)
	c.Graph = g
}

// decodeAdj parses the optional cached-adjacency section into c, validating
// the CSR invariants (monotone row pointers, in-range sorted-unique columns)
// the rest of the system assumes.
func decodeAdj(p *reader, c *Checkpoint) {
	nRows, nCols := p.dim("adj rows"), p.dim("adj cols")
	rowPtr := p.ints("adj rowptr")
	colIdx := p.ints("adj colidx")
	vals := p.f64s("adj val")
	if p.err != nil {
		return
	}
	if len(rowPtr) != nRows+1 || rowPtr[0] != 0 || rowPtr[nRows] != len(colIdx) || len(vals) != len(colIdx) {
		p.fail("adjacency framing: %d rowptr / %d colidx / %d vals for %d rows",
			len(rowPtr), len(colIdx), len(vals), nRows)
		return
	}
	for i := 0; i < nRows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			p.fail("adjacency rowptr decreases at row %d", i)
			return
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= nCols {
				p.fail("adjacency column %d outside %d cols", colIdx[k], nCols)
				return
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				p.fail("adjacency columns not sorted-unique in row %d", i)
				return
			}
		}
	}
	c.Adj = &sparse.CSR{NRows: nRows, NCols: nCols, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
}

// decodeTable parses the logits-table section into c. The value count is
// bounded by the payload before anything is allocated, and it must equal
// rows·cols, which the dimension caps keep far from overflow.
func decodeTable(p *reader, c *Checkpoint) {
	rows, cols := p.dim("table rows"), p.dim("table cols")
	vals := p.f64s("table value")
	if p.err != nil {
		return
	}
	if uint64(len(vals)) != uint64(rows)*uint64(cols) {
		p.fail("table %dx%d carries %d values", rows, cols, len(vals))
		return
	}
	c.Logits = matrix.FromSlice(rows, cols, vals)
}

// Save writes the checkpoint to path atomically (temp file + rename), so a
// crashed save never leaves a torn artifact behind.
func Save(path string, c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: Save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: Save: %w", err)
	}
	return nil
}

// Load reads and decodes the checkpoint at path.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: Load: %w", err)
	}
	return Decode(data)
}
