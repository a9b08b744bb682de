package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/models"
	"repro/internal/sparse"
)

// Header is the cheap metadata view of a checkpoint file: everything a model
// registry needs to list and route artifacts — architecture, hyperparameters,
// parameter/graph dimensions — without materializing the parameter vector,
// features, adjacency or logits table. Peek produces it by reading only
// section prefixes and seeking past the bulk payloads.
type Header struct {
	// Arch is the models.Registry architecture name.
	Arch string
	// Config carries the architecture hyperparameters stored in the model
	// section.
	Config models.Config
	// Norm is the adjacency normalisation the model propagates with.
	Norm sparse.NormKind
	// Params is the length of the flattened parameter vector.
	Params int
	// Nodes and Classes are the serving graph's dimensions.
	Nodes, Classes int
	// Edges is the stored undirected edge count.
	Edges int
	// HasAdj reports whether the artifact embeds the precomputed normalised
	// adjacency (so loading skips the normalisation pass).
	HasAdj bool
	// Bytes is the file size on disk.
	Bytes int64
}

// peeker reads fixed-width fields from a file with a sticky named-op error,
// mirroring the in-memory reader but seeking instead of materializing bulk
// payloads.
type peeker struct {
	f   *os.File
	buf [8]byte
	err error
}

// fail latches the first error with the package op name.
func (p *peeker) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("checkpoint: Peek: "+format, args...)
	}
}

// read fills dst, latching truncation as an error.
func (p *peeker) read(dst []byte) {
	if p.err != nil {
		return
	}
	if _, err := io.ReadFull(p.f, dst); err != nil {
		p.fail("truncated input: %v", err)
	}
}

func (p *peeker) u32() uint32 {
	p.read(p.buf[:4])
	if p.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p.buf[:4])
}

func (p *peeker) u64() uint64 {
	p.read(p.buf[:8])
	if p.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p.buf[:8])
}

// dim reads a u64 that must fit a non-negative int dimension.
func (p *peeker) dim(what string) int {
	v := p.u64()
	if p.err != nil {
		return 0
	}
	if v > math.MaxInt32 {
		p.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// seekTo positions the file at absolute offset off, latching a target past
// EOF as truncation.
func (p *peeker) seekTo(off, size int64) {
	if p.err != nil {
		return
	}
	if off > size {
		p.fail("truncated input: section runs %d bytes past end of file", off-size)
		return
	}
	if _, err := p.f.Seek(off, io.SeekStart); err != nil {
		p.fail("seek: %v", err)
	}
}

// Peek reads only the metadata of the checkpoint at path: magic, version and
// per-section headers, the model section's architecture/hyperparameters and
// parameter count, and the graph section's dimensions. Bulk payloads
// (parameters, features, adjacency, logits) are seeked over, not read, so
// peeking a multi-megabyte artifact costs a few kilobytes of IO — this is
// what lets a registry list a model-zoo directory without loading every
// model. Peek validates framing, field ranges and the table section's shape
// (it must match the graph's dimensions and fill its section exactly) but not
// section CRCs; a full Load still performs every integrity check before a
// model is served. Failures caused by the artifact's bytes (bad magic,
// framing violations, truncation) wrap ErrCorrupt; filesystem failures
// (open, stat) do not.
func Peek(path string) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: Peek: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: Peek: %w", err)
	}
	h, err := peek(f, fi.Size())
	if err != nil {
		return nil, corrupt(err)
	}
	return h, nil
}

// peek reads the header of an opened artifact; every failure below is a
// property of the file's bytes, so Peek tags them all with ErrCorrupt.
func peek(f *os.File, size int64) (*Header, error) {
	p := &peeker{f: f}
	magic := make([]byte, len(Magic))
	p.read(magic)
	if p.err == nil && string(magic) != Magic {
		return nil, fmt.Errorf("checkpoint: Peek: bad magic %q", magic)
	}
	if v := p.u32(); p.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: Peek: unsupported version %d (have %d)", v, Version)
	}
	nSec := p.u32()
	if p.err != nil {
		return nil, p.err
	}

	h := &Header{Bytes: size}
	var seenModel, seenGraph, seenTable bool
	lastKind := uint32(0)
	for i := uint32(0); i < nSec; i++ {
		kind := p.u32()
		length := p.u64()
		if p.err != nil {
			return nil, p.err
		}
		if kind <= lastKind {
			return nil, fmt.Errorf("checkpoint: Peek: section kind %d out of order after %d", kind, lastKind)
		}
		lastKind = kind
		if length > uint64(size) {
			return nil, fmt.Errorf("checkpoint: Peek: section %d length %d exceeds file size %d", kind, length, size)
		}
		start, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: Peek: %w", err)
		}
		switch kind {
		case secModel:
			peekModel(p, h)
			seenModel = true
		case secGraph:
			h.Nodes = p.dim("node count")
			h.Classes = p.dim("class count")
			h.Edges = p.dim("edge count")
			seenGraph = true
		case secAdj:
			h.HasAdj = true
		case secTable:
			peekTable(p, h, length)
			seenTable = true
		default:
			return nil, fmt.Errorf("checkpoint: Peek: unknown section kind %d", kind)
		}
		if p.err != nil {
			return nil, p.err
		}
		// Jump to the end of the section payload plus its 4-byte CRC.
		p.seekTo(start+int64(length)+4, size)
		if p.err != nil {
			return nil, p.err
		}
	}
	if !seenModel {
		return nil, fmt.Errorf("checkpoint: Peek: missing model section")
	}
	if !seenGraph {
		return nil, fmt.Errorf("checkpoint: Peek: missing graph section")
	}
	if !seenTable {
		return nil, fmt.Errorf("checkpoint: Peek: missing table section")
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: Peek: %w", err)
	}
	if end != size {
		return nil, fmt.Errorf("checkpoint: Peek: %d trailing bytes after last section", size-end)
	}
	return h, nil
}

// peekTable reads the table section's dimensions and value count and checks
// them against the graph section (which precedes it) and the section length.
func peekTable(p *peeker, h *Header, length uint64) {
	rows, cols := p.dim("table rows"), p.dim("table cols")
	n := p.u64()
	if p.err != nil {
		return
	}
	if rows != h.Nodes || cols != h.Classes {
		p.fail("logits table is %dx%d for a %d-node, %d-class graph", rows, cols, h.Nodes, h.Classes)
		return
	}
	// Compared by division: 8·n may overflow for a hostile n.
	if n != uint64(rows)*uint64(cols) || length < 24 || (length-24)%8 != 0 || (length-24)/8 != n {
		p.fail("table %dx%d carries %d values in a %d-byte section", rows, cols, n, length)
	}
}

// peekModel reads the model section prefix up to and including the parameter
// count, mirroring decodeModel's layout without materializing the vector.
func peekModel(p *peeker, h *Header) {
	n := p.u32()
	if p.err != nil {
		return
	}
	if n > 1<<10 {
		p.fail("architecture name length %d out of range", n)
		return
	}
	arch := make([]byte, n)
	p.read(arch)
	h.Arch = string(arch)
	h.Config.Hidden = p.dim("hidden")
	if p.err == nil && h.Config.Hidden > maxHidden {
		p.fail("hidden width %d exceeds cap %d", h.Config.Hidden, maxHidden)
		return
	}
	h.Config.Dropout = math.Float64frombits(p.u64())
	h.Config.Hops = p.dim("hops")
	if p.err == nil && h.Config.Hops > maxHops {
		p.fail("hop count %d exceeds cap %d", h.Config.Hops, maxHops)
		return
	}
	h.Config.Alpha = math.Float64frombits(p.u64())
	h.Config.LR = math.Float64frombits(p.u64())
	h.Config.WeightDecay = math.Float64frombits(p.u64())
	norm := p.u32()
	if p.err == nil {
		if norm > uint32(sparse.NormReverse) {
			p.fail("unknown NormKind %d", norm)
			return
		}
		h.Norm = sparse.NormKind(norm)
	}
	h.Params = p.dim("param count")
}
