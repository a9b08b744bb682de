// Command docslint is the documentation gate of the repository, run by
// `make docs-lint` and the CI docs-lint job. It enforces two tiers:
//
//  1. Every package under internal/ must carry a package comment
//     ("// Package <name> ..." on some file's package clause).
//  2. Strict packages (the shared substrate other layers build on:
//     internal/federated, internal/scenario, internal/sparse,
//     internal/matrix, internal/parallel, the serving surface
//     internal/checkpoint, internal/serve, internal/registry,
//     internal/partition and internal/shard, plus the observability layer
//     internal/telemetry) must additionally document every exported
//     top-level identifier — funcs, methods with exported receivers,
//     types, consts and vars.
//
// It also enforces the import layering of the serving stack (importBans):
// internal/serve answers from a filled logits table and may not import
// models, nn, parallel or graph; internal/shard exports tables and may not
// import serve. It keeps node- and edge-keyed maps off the set-up path
// (denseDirs): internal/graph, sparse, partition, datasets and shard may not
// declare a map keyed by int, int32, int64 or [2]int. And it keeps the
// serving layer lock-free (lockFreeDirs): internal/serve may not name
// sync.Mutex or sync.RWMutex. All three rules cover non-test files only.
//
// Violations are printed one per line as file:line: message and the exit
// status is 1; a clean tree prints nothing and exits 0.
//
// Usage:
//
//	go run ./cmd/docslint [root]
//
// root defaults to ".". Test files and generated assembly stubs are exempt
// from the strict tier only if unexported; exported symbols in build-tagged
// files are checked like any other.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// strictDirs lists the packages whose exported surface must be fully
// documented, relative to the repository root.
var strictDirs = map[string]bool{
	"internal/federated":  true,
	"internal/scenario":   true,
	"internal/sparse":     true,
	"internal/matrix":     true,
	"internal/parallel":   true,
	"internal/checkpoint": true,
	"internal/serve":      true,
	"internal/registry":   true,
	"internal/partition":  true,
	"internal/shard":      true,
	"internal/telemetry":  true,
}

// importBans lists, per package directory relative to the repository root,
// the import paths its non-test files may not take. A server is born with
// its logits table (checkpoint.Table fills it), so serve never sees a model,
// a graph or the worker pool; a sharded table reaches a server through
// serve.NewFromTable, so shard never constructs one.
var importBans = map[string][]string{
	"internal/serve": {"repro/internal/models", "repro/internal/nn", "repro/internal/parallel", "repro/internal/graph"},
	"internal/shard": {"repro/internal/serve"},
}

// denseDirs lists the set-up path's packages, relative to the repository
// root. Node ids there are dense, so a node-, community- or edge-keyed table
// is a slice indexed by id, a dense remap or a graph.EdgeSet, never a map.
var denseDirs = map[string]bool{
	"internal/graph":     true,
	"internal/sparse":    true,
	"internal/partition": true,
	"internal/datasets":  true,
	"internal/shard":     true,
}

// lockFreeDirs lists the packages, relative to the repository root, whose
// non-test files may not name sync.Mutex or sync.RWMutex. A server answers
// from an immutable table and counts into atomic telemetry series, so a lock
// there would put a second stats store back on the per-request path.
var lockFreeDirs = map[string]bool{
	"internal/serve": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := goPackageDirs(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	var problems []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		rel = filepath.ToSlash(rel)
		p, err := lintDir(dir, rel, strictDirs[rel])
		if err != nil {
			fmt.Fprintln(os.Stderr, "docslint:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// goPackageDirs returns every directory under root containing at least one
// non-test .go file.
func goPackageDirs(root string) ([]string, error) {
	set := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		set[filepath.Dir(path)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(set))
	for d := range set {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintDir parses one package directory and reports its documentation,
// import-layering, map-key and lock violations. rel is the root-relative
// path that keys importBans, denseDirs and lockFreeDirs; strict adds the
// exported-identifier tier.
func lintDir(dir, rel string, strict bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	var problems []string
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.HasPrefix(strings.TrimSpace(f.Doc.Text()), "Package ") {
				hasPkgDoc = true
				break
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment (\"// Package %s ...\")", rel, name, name))
		}
		// Deterministic file order for stable output.
		files := make([]string, 0, len(pkg.Files))
		for fname := range pkg.Files {
			files = append(files, fname)
		}
		sort.Strings(files)
		for _, fname := range files {
			problems = append(problems, lintImports(fset, pkg.Files[fname], importBans[rel])...)
			if denseDirs[rel] {
				problems = append(problems, lintMapKeys(fset, pkg.Files[fname])...)
			}
			if lockFreeDirs[rel] {
				problems = append(problems, lintMutexes(fset, pkg.Files[fname])...)
			}
			if strict {
				problems = append(problems, lintFile(fset, pkg.Files[fname])...)
			}
		}
	}
	return problems, nil
}

// lintImports reports every import of f whose path is in banned.
func lintImports(fset *token.FileSet, f *ast.File, banned []string) []string {
	var problems []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, b := range banned {
			if path == b {
				p := fset.Position(imp.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: package %s may not import %s", filepath.ToSlash(p.Filename), p.Line, f.Name.Name, path))
			}
		}
	}
	return problems
}

// lintMapKeys reports every map type in f keyed by int, int32, int64 or
// [2]int.
func lintMapKeys(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	ast.Inspect(f, func(n ast.Node) bool {
		m, ok := n.(*ast.MapType)
		if !ok {
			return true
		}
		if key := idKey(m.Key); key != "" {
			p := fset.Position(m.Pos())
			problems = append(problems, fmt.Sprintf("%s:%d: map keyed by %s on the set-up path; use a dense slice or graph.EdgeSet", filepath.ToSlash(p.Filename), p.Line, key))
		}
		return true
	})
	return problems
}

// lintMutexes reports every use of sync.Mutex or sync.RWMutex in f, under
// whatever name f imports sync.
func lintMutexes(fset *token.FileSet, f *ast.File) []string {
	syncName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
			syncName = "sync"
			if imp.Name != nil {
				syncName = imp.Name.Name
			}
		}
	}
	if syncName == "" {
		return nil
	}
	var problems []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, isIdent := sel.X.(*ast.Ident); isIdent && pkg.Name == syncName && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
			p := fset.Position(sel.Pos())
			problems = append(problems, fmt.Sprintf("%s:%d: sync.%s in a lock-free package; count with atomics or telemetry series", filepath.ToSlash(p.Filename), p.Line, sel.Sel.Name))
		}
		return true
	})
	return problems
}

// idKey returns the banned key type's spelling, or "" for any other key.
func idKey(key ast.Expr) string {
	switch k := key.(type) {
	case *ast.Ident:
		switch k.Name {
		case "int", "int32", "int64":
			return k.Name
		}
	case *ast.ArrayType:
		lit, ok := k.Len.(*ast.BasicLit)
		if elt, isIdent := k.Elt.(*ast.Ident); ok && isIdent && lit.Value == "2" && elt.Name == "int" {
			return "[2]int"
		}
	}
	return ""
}

// lintFile reports every exported top-level identifier of f that lacks a
// doc comment.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s is undocumented", filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && exportedRecv(d) == "" {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				name := d.Name.Name
				if d.Recv != nil {
					kind = "method"
					name = exportedRecv(d) + "." + name
				}
				report(d.Pos(), kind, name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if id.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(id.Pos(), strings.ToLower(d.Tok.String()), id.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedRecv returns the exported receiver type name of a method, or ""
// for functions and methods on unexported types (whose exported methods are
// not reachable outside the package and are therefore exempt).
func exportedRecv(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers parse as index expressions: T[P] / T[P1, P2].
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok && id.IsExported() {
		return id.Name
	}
	return ""
}
