package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg writes one Go file into dir/rel and returns the directory.
func writePkg(t *testing.T, root, rel, name, src string) string {
	t.Helper()
	dir := filepath.Join(root, rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestImportLayering: a serve file importing graph, or a shard file
// importing serve, fails the rule with its file and line; the same imports
// in a test file, or in a package without bans, pass.
func TestImportLayering(t *testing.T) {
	root := t.TempDir()
	serveDir := writePkg(t, root, "internal/serve", "serve.go",
		"// Package serve is a fixture.\npackage serve\n\nimport (\n\t\"fmt\"\n\t\"repro/internal/graph\"\n)\n\nvar _ = fmt.Sprint\nvar _ graph.Graph\n")
	writePkg(t, root, "internal/serve", "serve_test.go",
		"package serve\n\nimport _ \"repro/internal/models\"\n")
	shardDir := writePkg(t, root, "internal/shard", "shard.go",
		"// Package shard is a fixture.\npackage shard\n\nimport _ \"repro/internal/serve\"\n")
	freeDir := writePkg(t, root, "internal/bench", "bench.go",
		"// Package bench is a fixture.\npackage bench\n\nimport _ \"repro/internal/serve\"\n")

	for _, tc := range []struct {
		dir, rel, want string
	}{
		{serveDir, "internal/serve", "serve.go:6: package serve may not import repro/internal/graph"},
		{shardDir, "internal/shard", "shard.go:4: package shard may not import repro/internal/serve"},
		{freeDir, "internal/bench", ""},
	} {
		problems, err := lintDir(tc.dir, tc.rel, false)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want == "" {
			if len(problems) != 0 {
				t.Fatalf("%s: unexpected problems %q", tc.rel, problems)
			}
			continue
		}
		if len(problems) != 1 || !strings.HasSuffix(problems[0], tc.want) {
			t.Fatalf("%s: problems %q, want one ending in %q", tc.rel, problems, tc.want)
		}
	}
}

// TestMapKeys: a set-up package declaring a map keyed by int, int32, int64
// or [2]int — as a type, in a make, a literal or a signature — fails the
// rule once per map with its file and line; a string-keyed map, the same
// maps in a test file, or in a package outside the rule, pass.
func TestMapKeys(t *testing.T) {
	root := t.TempDir()
	graphDir := writePkg(t, root, "internal/graph", "graph.go", `// Package graph is a fixture.
package graph

type remap map[int]int

var names = map[string]int{}

func edges(n int) map[[2]int]bool {
	deg := make(map[int32]float64, n)
	_ = map[int64][]int{1: nil}
	_ = deg
	return nil
}
`)
	writePkg(t, root, "internal/graph", "graph_test.go", "package graph\n\nvar seen = map[[2]int]bool{}\n")
	freeDir := writePkg(t, root, "internal/registry", "registry.go",
		"// Package registry is a fixture.\npackage registry\n\nvar versions = map[int]string{}\n")

	problems, err := lintDir(graphDir, "internal/graph", false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"graph.go:4: map keyed by int on",
		"graph.go:8: map keyed by [2]int on",
		"graph.go:9: map keyed by int32 on",
		"graph.go:10: map keyed by int64 on",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %q, want one containing %q", problems[i], w)
		}
	}
	if problems, err := lintDir(freeDir, "internal/registry", false); err != nil || len(problems) != 0 {
		t.Fatalf("registry: problems %q, err %v", problems, err)
	}
}

// TestMutexes: a serve file naming sync.Mutex or sync.RWMutex — as a field,
// a var, a composite type or under an import alias — fails the rule once per
// use with its file and line; sync.Once and atomics, the same locks in a
// test file, or in a package outside the rule, pass.
func TestMutexes(t *testing.T) {
	root := t.TempDir()
	serveDir := writePkg(t, root, "internal/serve", "serve.go", `// Package serve is a fixture.
package serve

import (
	"sync"
	"sync/atomic"
)

type server struct {
	mu   sync.Mutex
	once sync.Once
	n    atomic.Int64
}

var shards []sync.RWMutex

func lock() *sync.Mutex { return new(sync.Mutex) }
`)
	writePkg(t, root, "internal/serve", "other.go", "package serve\n\nimport s \"sync\"\n\nvar guard s.RWMutex\n")
	writePkg(t, root, "internal/serve", "serve_test.go", "package serve\n\nimport \"sync\"\n\nvar testMu sync.Mutex\n")
	freeDir := writePkg(t, root, "internal/registry", "registry.go",
		"// Package registry is a fixture.\npackage registry\n\nimport \"sync\"\n\nvar mu sync.Mutex\n")

	problems, err := lintDir(serveDir, "internal/serve", false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"other.go:5: sync.RWMutex in a lock-free package",
		"serve.go:10: sync.Mutex in a lock-free package",
		"serve.go:15: sync.RWMutex in a lock-free package",
		"serve.go:17: sync.Mutex in a lock-free package",
		"serve.go:17: sync.Mutex in a lock-free package",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %q, want one containing %q", problems[i], w)
		}
	}
	if problems, err := lintDir(freeDir, "internal/registry", false); err != nil || len(problems) != 0 {
		t.Fatalf("registry: problems %q, err %v", problems, err)
	}
}

// TestRepositoryLayering holds the repository's own packages to the import,
// map-key and lock rules.
func TestRepositoryLayering(t *testing.T) {
	for _, rel := range []string{"internal/serve", "internal/shard", "internal/graph", "internal/sparse", "internal/partition", "internal/datasets"} {
		problems, err := lintDir(filepath.Join("..", "..", rel), rel, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 0 {
			t.Fatalf("%s: %q", rel, problems)
		}
	}
}
