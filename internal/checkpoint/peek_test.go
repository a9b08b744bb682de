package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPeekMatchesLoad checks the cheap header view agrees with a full load
// on every metadata field.
func TestPeekMatchesLoad(t *testing.T) {
	ck, g := trained(t, "GCN", 5)
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := Save(path, ck); err != nil {
		t.Fatal(err)
	}
	h, err := Peek(path)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if h.Arch != ck.Arch || h.Norm != ck.Norm || h.Config != ck.Config {
		t.Fatalf("header model fields drifted: %+v", h)
	}
	if h.Params != len(ck.Params) {
		t.Fatalf("param count %d, want %d", h.Params, len(ck.Params))
	}
	if h.Nodes != g.N || h.Classes != g.Classes || h.Edges != len(g.Edges) {
		t.Fatalf("graph dims %d/%d/%d, want %d/%d/%d",
			h.Nodes, h.Classes, h.Edges, g.N, g.Classes, len(g.Edges))
	}
	fi, _ := os.Stat(path)
	if h.Bytes != fi.Size() {
		t.Fatalf("Bytes = %d, want %d", h.Bytes, fi.Size())
	}
}

// TestPeekCorrupt drives truncated and corrupt files through Peek: every
// case must yield a named-op error, never a panic.
func TestPeekCorrupt(t *testing.T) {
	ck, _ := trained(t, "SGC", 9)
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := map[string][]byte{
		"empty":           {},
		"short-magic":     data[:4],
		"bad-magic":       append([]byte("NOTACKPT"), data[8:]...),
		"header-only":     data[:16],
		"truncated-model": data[:40],
		"truncated-tail":  data[:len(data)-8],
	}
	for name, b := range cases {
		if _, err := Peek(write(name, b)); err == nil {
			t.Errorf("%s: Peek accepted corrupt input", name)
		}
	}
	if _, err := Peek(filepath.Join(dir, "does-not-exist.ckpt")); err == nil {
		t.Error("Peek accepted a missing file")
	}
}
