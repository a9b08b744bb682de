package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// trainedResult runs a tiny federation of arch and returns its result, the
// model configuration it trained with and the global graph it serves.
func trainedResult(t testing.TB, arch string, seed int64) (*federated.Result, models.Config, *graph.Graph) {
	t.Helper()
	spec, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.2, seed)
	cd := partition.CommunitySplit(g, 3, rand.New(rand.NewSource(seed)))
	cfg := models.DefaultConfig()
	cfg.Hidden = 8
	cfg.Dropout = 0
	clients := federated.BuildClients(cd.Subgraphs, models.Registry[arch], cfg, seed)
	opt := federated.DefaultOptions()
	opt.Rounds = 3
	opt.LocalEpochs = 1
	res, err := federated.Run(clients, seed+1, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg, g
}

// trained runs a tiny federation and returns its checkpoint plus the global
// graph it serves.
func trained(t testing.TB, arch string, seed int64) (*Checkpoint, *graph.Graph) {
	t.Helper()
	res, cfg, g := trainedResult(t, arch, seed)
	ck, err := FromResult(res, arch, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return ck, g
}

// TestRoundTripBitIdentical is the core format contract: Encode→Decode→Encode
// must reproduce the exact bytes, and the decoded checkpoint must preserve
// every field.
func TestRoundTripBitIdentical(t *testing.T) {
	for _, arch := range []string{"GCN", "SGC"} {
		ck, g := trained(t, arch, 7)
		enc, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: Decode: %v", arch, err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: re-encode differs: %d vs %d bytes", arch, len(enc), len(enc2))
		}
		if dec.Arch != arch || dec.Norm != sparse.NormSym {
			t.Fatalf("%s: arch/norm drifted: %q %v", arch, dec.Arch, dec.Norm)
		}
		if dec.Config != ck.Config {
			t.Fatalf("%s: config drifted: %+v vs %+v", arch, dec.Config, ck.Config)
		}
		for i, v := range ck.Params {
			if dec.Params[i] != v {
				t.Fatalf("%s: Params[%d]: %v != %v", arch, i, dec.Params[i], v)
			}
		}
		if dec.Graph.N != g.N || dec.Graph.Classes != g.Classes || len(dec.Graph.Edges) != len(g.Edges) {
			t.Fatalf("%s: graph shape drifted", arch)
		}
		for i, v := range g.X.Data {
			if dec.Graph.X.Data[i] != v {
				t.Fatalf("%s: X[%d] drifted", arch, i)
			}
		}
		for i := range g.TrainMask {
			if dec.Graph.TrainMask[i] != g.TrainMask[i] ||
				dec.Graph.ValMask[i] != g.ValMask[i] ||
				dec.Graph.TestMask[i] != g.TestMask[i] {
				t.Fatalf("%s: masks drifted at %d", arch, i)
			}
		}
		if dec.Adj == nil || dec.Adj.NNZ() != ck.Adj.NNZ() {
			t.Fatalf("%s: adjacency section lost", arch)
		}
		table, err := dec.Table()
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if table.Rows != g.N || table.Cols != g.Classes {
			t.Fatalf("%s: table is %dx%d for a %d-node, %d-class graph", arch, table.Rows, table.Cols, g.N, g.Classes)
		}
		for i, v := range ck.Logits.Data {
			if table.Data[i] != v {
				t.Fatalf("%s: table value %d: %v != %v", arch, i, table.Data[i], v)
			}
		}
	}
}

// TestSaveLoadFile round-trips through the filesystem and checks Save's
// output is byte-stable across repeated saves.
func TestSaveLoadFile(t *testing.T) {
	ck, _ := trained(t, "GCN", 3)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.ckpt")
	p2 := filepath.Join(dir, "b.ckpt")
	if err := Save(p1, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(p2, loaded); err != nil {
		t.Fatal(err)
	}
	b1, _ := ck.Encode()
	b2, _ := loaded.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("save→load→save is not bit-identical")
	}
}

// TestModelRebuild verifies a loaded checkpoint rebuilds a model whose
// inference outputs match the original parameters exactly.
func TestModelRebuild(t *testing.T) {
	ck, g := trained(t, "GCN", 5)
	enc, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dec.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	got := nn.Flatten(m)
	for i, v := range ck.Params {
		if got[i] != v {
			t.Fatalf("rebuilt param %d: %v != %v", i, got[i], v)
		}
	}
	// The rebuilt model is bound to the decoded graph, which must behave
	// like the original: same logits on the same features.
	orig, err := ck.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	lg, lo := m.Logits(false), orig.Logits(false)
	if lg.Rows != g.N {
		t.Fatalf("logits rows %d for %d nodes", lg.Rows, g.N)
	}
	for i, v := range lo.Data {
		if lg.Data[i] != v {
			t.Fatalf("logits[%d]: rebuilt %v != original %v", i, lg.Data[i], v)
		}
	}
}

// TestFromResultValidation covers the named-op error paths of FromResult.
func TestFromResultValidation(t *testing.T) {
	ck, g := trained(t, "GCN", 9)
	if _, err := FromResult(nil, "GCN", ck.Config, g); err == nil {
		t.Fatal("nil result must fail")
	}
	if _, err := FromResult(&federated.Result{GlobalParams: ck.Params}, "NoSuchArch", ck.Config, g); err == nil {
		t.Fatal("unknown arch must fail")
	}
	if _, err := FromResult(&federated.Result{GlobalParams: ck.Params}, "GCN", ck.Config, nil); err == nil {
		t.Fatal("nil graph must fail")
	}
}

// TestDecodeCorrupt drives every header/section corruption class through
// Decode and requires a named-op error (prefix "checkpoint:"), never a panic.
func TestDecodeCorrupt(t *testing.T) {
	ck, _ := trained(t, "GCN", 13)
	good, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"short":     func() []byte { return good[:4] },
		"badmagic":  func() []byte { b := clone(good); b[0] ^= 0xff; return b },
		"badversio": func() []byte { b := clone(good); b[8] ^= 0xff; return b },
		"truncated": func() []byte { return good[:len(good)/2] },
		"flippayl":  func() []byte { b := clone(good); b[len(b)/2] ^= 0x01; return b },
		"flipcrc":   func() []byte { b := clone(good); b[len(b)-1] ^= 0x01; return b },
		"trailing":  func() []byte { return append(clone(good), 0xEE) },
		"headeronly": func() []byte {
			return append([]byte(Magic), []byte{1, 0, 0, 0, 2, 0, 0, 0}...)
		},
	}
	for name, make := range cases {
		data := make()
		c, err := Decode(data)
		if err == nil {
			t.Fatalf("%s: Decode accepted corrupt input (got %+v)", name, c)
		}
		if got := err.Error(); len(got) < 11 || got[:11] != "checkpoint:" {
			t.Fatalf("%s: error not named-op: %q", name, got)
		}
	}
}

// TestDecodeHostileHyperparams: a CRC-valid checkpoint whose hyperparameters
// would make the registry builder allocate enormous matrices (or run 2^31
// propagation steps) must fail at Decode with a named-op error, before any
// model construction can panic or OOM.
func TestDecodeHostileHyperparams(t *testing.T) {
	for name, mutate := range map[string]func(*Checkpoint){
		"hidden": func(c *Checkpoint) { c.Config.Hidden = maxHidden + 1 },
		"hops":   func(c *Checkpoint) { c.Config.Hops = maxHops + 1 },
	} {
		ck := miniCheckpoint(1, false)
		mutate(ck)
		enc, err := ck.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(enc); err == nil {
			t.Fatalf("%s: Decode accepted a hostile value", name)
		} else if got := err.Error(); got[:11] != "checkpoint:" {
			t.Fatalf("%s: error not named-op: %q", name, got)
		}
	}

	// A class count past the cap, forged into the graph section (whose
	// second field it is): Encode would refuse the table that goes with it.
	enc, err := miniCheckpoint(1, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	secs := splitSections(t, enc)
	graphSec := clone(secs[1].payload)
	binary.LittleEndian.PutUint64(graphSec[8:], maxHidden+1)
	secs[1].payload = graphSec
	if _, err := Decode(assemble(Version, secs)); err == nil || !strings.Contains(err.Error(), "class count") {
		t.Fatalf("class count past the cap: got %v", err)
	}
}

// TestDecodeHostileGraphPayload: CRC-valid graph sections whose bulk-decoded
// arrays (edge list, labels, masks) carry out-of-range elements must fail at
// Decode with a named-op error — the per-element guards survive the bulk
// decoders that check their extent once.
func TestDecodeHostileGraphPayload(t *testing.T) {
	for name, mutate := range map[string]func(*Checkpoint){
		"edge-at-n":      func(c *Checkpoint) { c.Graph.Edges[3] = [2]int{0, c.Graph.N} },
		"edge-huge":      func(c *Checkpoint) { c.Graph.Edges[0] = [2]int{1 << 40, 0} },
		"edge-negative":  func(c *Checkpoint) { c.Graph.Edges[len(c.Graph.Edges)-1] = [2]int{1, -1} },
		"label-at-c":     func(c *Checkpoint) { c.Graph.Labels[5] = c.Graph.Classes },
		"label-negative": func(c *Checkpoint) { c.Graph.Labels[0] = -1 },
	} {
		ck := miniCheckpoint(1, false)
		mutate(ck)
		enc, err := ck.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Decode(enc); err == nil {
			t.Fatalf("%s: Decode accepted a hostile value", name)
		} else if got := err.Error(); got[:11] != "checkpoint:" || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error not a named-op ErrCorrupt: %q", name, got)
		}
	}

	// A mask byte that is neither 0 nor 1, re-framed under a valid CRC: the
	// graph section's final payload byte is the last test-mask entry.
	enc, err := miniCheckpoint(1, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	secs := splitSections(t, enc)
	graphSec := clone(secs[1].payload)
	graphSec[len(graphSec)-1] = 2
	secs[1].payload = graphSec
	if _, err := Decode(assemble(Version, secs)); err == nil || !strings.Contains(err.Error(), "mask byte") {
		t.Fatalf("mask byte 2 under a valid CRC: got %v", err)
	}
}

// section is one decoded section frame of an encoded artifact.
type section struct {
	kind    uint32
	payload []byte
}

// splitSections cuts a well-formed encoding into its section frames, in file
// order.
func splitSections(t testing.TB, enc []byte) []section {
	t.Helper()
	off := len(Magic) + 4
	n := binary.LittleEndian.Uint32(enc[off:])
	off += 4
	secs := make([]section, n)
	for i := range secs {
		secs[i].kind = binary.LittleEndian.Uint32(enc[off:])
		size := int(binary.LittleEndian.Uint64(enc[off+4:]))
		secs[i].payload = enc[off+12 : off+12+size]
		off += 12 + size + 4
	}
	if off != len(enc) {
		t.Fatalf("splitSections: %d bytes after the last section", len(enc)-off)
	}
	return secs
}

// assemble frames sections into a container of the given version, each under
// a valid CRC, so a test can forge an artifact only the decoder's structural
// checks can refuse.
func assemble(version uint32, secs []section) []byte {
	out := append([]byte(Magic), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(out[len(Magic):], version)
	binary.LittleEndian.PutUint32(out[len(Magic)+4:], uint32(len(secs)))
	for _, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, s.kind)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = append(out, s.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
	}
	return out
}

// TestModelValidation covers Model's defence against inconsistent artifacts.
func TestModelValidation(t *testing.T) {
	ck, _ := trained(t, "GCN", 17)
	bad := *ck
	bad.Params = ck.Params[:len(ck.Params)-1]
	if _, err := bad.Model(1); err == nil {
		t.Fatal("short params must fail")
	}
	bad = *ck
	bad.Arch = "NoSuchArch"
	if _, err := bad.Model(1); err == nil {
		t.Fatal("unknown arch must fail")
	}
	bad = *ck
	bad.Adj = &sparse.CSR{NRows: 1, NCols: 1, RowPtr: []int{0, 0}}
	if _, err := bad.Model(1); err == nil {
		t.Fatal("mismatched adjacency must fail")
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// TestDecodeHostileSections: CRC-valid graph and adjacency sections that
// break a structural invariant — shapes that disagree with the node count, a
// labelled graph without classes, a CSR that is not one — and model fields
// past their caps fail Decode and Peek with ErrCorrupt, never a panic.
func TestDecodeHostileSections(t *testing.T) {
	csr := func(c *Checkpoint, rowPtr, colIdx []int) {
		c.Adj = &sparse.CSR{NRows: c.Graph.N, NCols: c.Graph.N, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, len(colIdx))}
	}
	rowPtr := func(n int, last int) []int {
		p := make([]int, n+1)
		p[n] = last
		return p
	}
	decodeOnly := map[string]func(*Checkpoint){
		"labels-short": func(c *Checkpoint) { c.Graph.Labels = c.Graph.Labels[:5] },
		"mask-short":   func(c *Checkpoint) { c.Graph.ValMask = c.Graph.ValMask[1:] },
		"labels-no-classes": func(c *Checkpoint) {
			c.Graph.Classes = 0
			c.Logits = matrix.New(c.Graph.N, 0)
		},
		"adj-framing":    func(c *Checkpoint) { csr(c, []int{0, 1}, []int{0}) },
		"adj-decreasing": func(c *Checkpoint) { p := rowPtr(c.Graph.N, 1); p[1] = 2; csr(c, p, []int{0, 1}) },
		"adj-column":     func(c *Checkpoint) { csr(c, rowPtr(c.Graph.N, 1), []int{c.Graph.N}) },
		"adj-unsorted":   func(c *Checkpoint) { csr(c, rowPtr(c.Graph.N, 2), []int{1, 0}) },
		"adj-shape": func(c *Checkpoint) {
			c.Adj = &sparse.CSR{NRows: 1, NCols: 1, RowPtr: []int{0, 0}}
		},
	}
	peekToo := map[string]func(*Checkpoint){
		"norm-unknown": func(c *Checkpoint) { c.Norm = sparse.NormReverse + 1 },
		"hidden-cap":   func(c *Checkpoint) { c.Config.Hidden = maxHidden + 1 },
		"hops-cap":     func(c *Checkpoint) { c.Config.Hops = maxHops + 1 },
		"arch-long":    func(c *Checkpoint) { c.Arch = strings.Repeat("x", 1<<10+1) },
	}
	dir := t.TempDir()
	for _, set := range []struct {
		cases map[string]func(*Checkpoint)
		peek  bool
	}{{decodeOnly, false}, {peekToo, true}} {
		for name, mutate := range set.cases {
			ck := miniCheckpoint(1, true)
			ck.Graph = ck.Graph.Clone()
			mutate(ck)
			enc, err := ck.Encode()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "arch-long" {
				// Decode takes any name length; only Peek bounds it.
			} else if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Decode error %v, want ErrCorrupt", name, err)
			}
			if !set.peek {
				continue
			}
			path := filepath.Join(dir, name+".ckpt")
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Peek(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Peek error %v, want ErrCorrupt", name, err)
			}
		}
	}

	// The feature matrix's row count, forged past the node count: Encode
	// refuses to write it, so the bytes are patched under a fresh CRC.
	ck := miniCheckpoint(1, false)
	enc, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	secs := splitSections(t, enc)
	graphSec := clone(secs[1].payload)
	xAt := 24 + 16*len(ck.Graph.Edges) + 1 // N, classes, edge count, edges, present flag
	binary.LittleEndian.PutUint64(graphSec[xAt:], uint64(ck.Graph.N+1))
	secs[1].payload = graphSec
	if _, err := Decode(assemble(Version, secs)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "feature matrix") {
		t.Fatalf("feature rows past the node count: got %v", err)
	}
}

// TestCorruptUnwraps: a corruption error keeps the decoder's message and
// unwraps to it, so callers can both classify and report it.
func TestCorruptUnwraps(t *testing.T) {
	_, err := Decode([]byte("ADFGLCK1"))
	if !errors.Is(err, ErrCorrupt) || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != err.Error() {
		t.Fatalf("Decode of a bare magic: %v", err)
	}
	if corrupt(nil) != nil {
		t.Fatal("corrupt(nil) must stay nil")
	}
}

// TestSaveLoadErrors: filesystem failures are reported by Save and Load as
// named-op errors that are not ErrCorrupt, and Save writes nothing for a
// checkpoint it cannot encode.
func TestSaveLoadErrors(t *testing.T) {
	dir := t.TempDir()
	ck := miniCheckpoint(2, false)
	if err := Save(filepath.Join(dir, "missing", "a.ckpt"), ck); err == nil {
		t.Fatal("Save into a missing directory must fail")
	}
	tableless := *ck
	tableless.Logits = nil
	path := filepath.Join(dir, "b.ckpt")
	if err := Save(path, &tableless); err == nil {
		t.Fatal("Save of a checkpoint without a table must fail")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed Save left %s behind: %v", path, err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, ck); err == nil {
		t.Fatal("Save over a directory must fail")
	}
	if _, err := Load(filepath.Join(dir, "absent.ckpt")); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of a missing file: %v, want a non-corrupt error", err)
	}
}
