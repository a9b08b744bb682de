package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// countingModel is a coupled engine that counts its full-graph passes and
// panics on the first panics of them. Every successful pass returns a fresh
// copy of logits, as a real forward does. It holds one 1×1 parameter, so a
// one-value result unflattens into it.
type countingModel struct {
	logits *matrix.Dense
	param  *nn.Parameter
	passes int
	panics int
}

func newCountingModel(logits *matrix.Dense, panics int) *countingModel {
	return &countingModel{logits: logits, param: nn.NewParameter("w", 1, 1), panics: panics}
}

func (m *countingModel) Params() []*nn.Parameter { return []*nn.Parameter{m.param} }
func (m *countingModel) Backward(*matrix.Dense)  { panic("countingModel is inference-only") }

func (m *countingModel) Logits(bool) *matrix.Dense {
	m.passes++
	if m.passes <= m.panics {
		panic(fmt.Sprintf("countingModel: injected failure of pass %d", m.passes))
	}
	return m.logits.Clone()
}

// countingDecoupled is a countingModel in decoupled shape: its embedding is
// the counted (and, on schedule, panicking) pass and its head the identity, so
// the dense head over every row lands exactly on logits.
type countingDecoupled struct{ *countingModel }

func (m countingDecoupled) InferenceFactors() (*matrix.Dense, []models.HeadLayer) {
	emb := m.Logits(false)
	eye := matrix.New(emb.Cols, emb.Cols)
	for j := 0; j < emb.Cols; j++ {
		eye.Set(j, j, 1)
	}
	return emb, []models.HeadLayer{{W: eye, Bias: make([]float64, emb.Cols)}}
}

func (m countingDecoupled) EmbeddingSpec() models.EmbeddingSpec { return models.EmbeddingSpec{} }

// stubShapes presents one countingModel to the table fill as each kind of
// engine.
var stubShapes = map[string]func(*countingModel) models.Model{
	"Model":     func(m *countingModel) models.Model { return m },
	"Decoupled": func(m *countingModel) models.Model { return countingDecoupled{m} },
}

// stubArch registers the test-only architecture arch, whose builder hands
// out m whatever graph it is bound to, until t ends.
func stubArch(t *testing.T, arch string, m models.Model) {
	t.Helper()
	models.Registry[arch] = func(*graph.Graph, models.Config, *rand.Rand) models.Model { return m }
	t.Cleanup(func() { delete(models.Registry, arch) })
}

// stubResult is a one-parameter result, what a countingModel unflattens.
var stubResult = &federated.Result{GlobalParams: []float64{0.5}}

// stubLogits fills an n×c table with distinct, recognisable scores.
func stubLogits(n, c int) *matrix.Dense {
	lg := matrix.New(n, c)
	for i := range lg.Data {
		lg.Data[i] = float64(i)*0.25 - 3
	}
	return lg
}

// sameTable fails unless got carries want's shape and bits.
func sameTable(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: table is %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: table value %d is %v, want %v", what, i, got.Data[i], v)
		}
	}
}

// TestExportRunsOneFill: exporting an engine of either shape runs the table
// fill exactly once, in FromResult, and stores that pass's rows. Encoding,
// decoding and reading the table back run none.
func TestExportRunsOneFill(t *testing.T) {
	const n, c = 20, 3
	want := stubLogits(n, c)
	for name, shape := range stubShapes {
		t.Run(name, func(t *testing.T) {
			m := newCountingModel(want, 0)
			stubArch(t, "stub-plain", shape(m))
			ck, err := FromResult(stubResult, "stub-plain", models.Config{}, graph.New(n, nil, nil, nil, c))
			if err != nil {
				t.Fatal(err)
			}
			if m.passes != 1 {
				t.Fatalf("FromResult ran %d engine passes, want exactly 1", m.passes)
			}
			enc, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			table, err := dec.Table()
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, name, table, want)
			if m.passes != 1 {
				t.Fatalf("encode, decode and Table ran %d more engine passes, want none", m.passes-1)
			}
		})
	}
}

// TestPanickingPassStoresNothing: a table fill that panics — a coupled
// engine's forward or a decoupled one's factors — makes FromResult return an
// error and no checkpoint. Nothing is kept from it, so the next export runs
// the fill again and stores that pass's rows.
func TestPanickingPassStoresNothing(t *testing.T) {
	const n, c = 12, 4
	want := stubLogits(n, c)
	for shape, as := range stubShapes {
		m := newCountingModel(want, 1)
		stubArch(t, "stub-panic", as(m))
		g := graph.New(n, nil, nil, nil, c)
		ck, err := FromResult(stubResult, "stub-panic", models.Config{}, g)
		if err == nil || ck != nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: FromResult over a panicking fill: checkpoint %v, err %v; want none and the panic", shape, ck, err)
		}
		ck, err = FromResult(stubResult, "stub-panic", models.Config{}, g)
		if err != nil {
			t.Fatalf("%s: FromResult after the panic: %v", shape, err)
		}
		if m.passes != 2 {
			t.Fatalf("%s engine ran %d passes, want 2 (the panicking one and the one that filled the table)", shape, m.passes)
		}
		table, err := ck.Table()
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, shape+" after panic", table, want)
	}
}

// TestPropertyExportDeterministic: an export is a pure function of the
// training result and the graph — FromResult at 1 and at 3 workers encodes
// to the same bytes, table section included, for every architecture of the
// zoo. Each export binds a freshly generated graph, so neither reuses the
// other's propagation plans.
func TestPropertyExportDeterministic(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	spec, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	archs := make([]string, 0, len(models.Registry))
	for arch := range models.Registry {
		archs = append(archs, arch)
	}
	sort.Strings(archs)
	for _, arch := range archs {
		const seed = 31
		res, cfg, _ := trainedResult(t, arch, seed)
		var first []byte
		for _, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			ck, err := FromResult(res, arch, cfg, datasets.GenerateScaled(spec, 0.2, seed))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", arch, workers, err)
			}
			enc, err := ck.Encode()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", arch, workers, err)
			}
			if first == nil {
				first = enc
			} else if !bytes.Equal(enc, first) {
				t.Errorf("%s: export at workers=%d encodes differently from workers=1", arch, workers)
			}
		}
	}
}

// TestTableValidation: Table and Encode refuse a checkpoint without a graph,
// without a table or with a table of the wrong shape, and FromResult refuses
// parameters its architecture cannot hold (the fill's rebuild fails).
func TestTableValidation(t *testing.T) {
	ck := miniCheckpoint(3, true)
	for name, bad := range map[string]*Checkpoint{
		"no-graph": {Arch: "GCN", Logits: ck.Logits},
		"no-table": {Arch: "GCN", Graph: ck.Graph},
		"wrong-shape": {Arch: "GCN", Graph: ck.Graph,
			Logits: matrix.New(ck.Graph.N, ck.Graph.Classes+1)},
	} {
		if _, err := bad.Table(); err == nil {
			t.Errorf("%s: Table accepted it", name)
		}
		if _, err := bad.Encode(); err == nil {
			t.Errorf("%s: Encode accepted it", name)
		}
	}
	res, cfg, g := trainedResult(t, "GCN", 5)
	short := &federated.Result{GlobalParams: res.GlobalParams[:len(res.GlobalParams)-1]}
	if _, err := FromResult(short, "GCN", cfg, g); err == nil || !strings.Contains(err.Error(), "do not fit") {
		t.Fatalf("FromResult over parameters GCN cannot hold: %v", err)
	}
}

// tablePayload forges a table-section payload: its rows, cols and value
// count fields as given, followed by vals values.
func tablePayload(rows, cols, count uint64, vals int) []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint64(p, rows)
	p = binary.LittleEndian.AppendUint64(p, cols)
	p = binary.LittleEndian.AppendUint64(p, count)
	for i := 0; i < vals; i++ {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(float64(i)))
	}
	return p
}

// TestHostileTableRefused: an artifact whose table section is missing,
// misplaced, mis-shaped or mis-counted, or which predates the table
// (version 1), is
// refused by both Decode and Peek with an ErrCorrupt-family error — every
// section under a valid CRC, so only the structural checks can catch it —
// without a panic and without allocating for a count the bytes cannot hold.
func TestHostileTableRefused(t *testing.T) {
	ck := miniCheckpoint(5, true)
	enc, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	secs := splitSections(t, enc) // model, graph, adjacency, table
	if len(secs) != 4 || secs[3].kind != secTable {
		t.Fatalf("want 4 sections ending in the table, got %d", len(secs))
	}
	n, c := uint64(ck.Graph.N), uint64(ck.Graph.Classes)
	withTable := func(payload []byte) []byte {
		forged := append([]section(nil), secs[:3]...)
		return assemble(Version, append(forged, section{secTable, payload}))
	}
	cases := map[string][]byte{
		"version-1":       assemble(1, secs[:3]),
		"v1-header-on-v2": assemble(1, secs),
		"missing-table":   assemble(Version, secs[:3]),
		"rows-not-n":      withTable(tablePayload(n+1, c, (n+1)*c, int((n+1)*c))),
		"cols-not-c":      withTable(tablePayload(n, c-1, n*(c-1), int(n*(c-1)))),
		"rows-past-cap":   withTable(tablePayload(1<<40, c, 0, 0)),
		"nc-overflows":    withTable(tablePayload(math.MaxInt32, math.MaxInt32, 0, 0)),
		"count-huge":      withTable(tablePayload(n, c, 1<<60, 0)),
		"count-past-data": withTable(tablePayload(n, c, 1<<28, int(n*c))),
		"count-short":     withTable(tablePayload(n, c, n*c-1, int(n*c-1))),
		"count-long":      withTable(tablePayload(n, c, n*c+1, int(n*c+1))),
		"section-tail":    withTable(append(tablePayload(n, c, n*c, int(n*c)), 0xEE)),
		"dims-truncated":  withTable(secs[3].payload[:12]),
		"table-first":     assemble(Version, []section{secs[3], secs[0], secs[1], secs[2]}),
		"table-twice":     assemble(Version, append(append([]section(nil), secs...), secs[3])),
		"file-tail":       append(clone(enc), 0xEE),
	}
	dir := t.TempDir()
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil || got != nil {
			t.Errorf("%s: Decode accepted it", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode error %q is not ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(data)+1<<16) {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte artifact", name, grew, len(data))
		}
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, perr := Peek(path)
		if perr == nil || h != nil {
			t.Errorf("%s: Peek accepted it", name)
		} else if !errors.Is(perr, ErrCorrupt) {
			t.Errorf("%s: Peek error %q is not ErrCorrupt", name, perr)
		}
		t.Logf("%s: Decode: %v; Peek: %v", name, err, perr)
	}
	// The untouched sections reassemble into an artifact both accept.
	if !bytes.Equal(assemble(Version, secs), enc) {
		t.Fatal("reassembling the sections changed the bytes")
	}
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
}
