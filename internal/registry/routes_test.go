package registry

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// hostPrefix matches the host part of an example URL, so that the path after
// it starts a token of its own.
var hostPrefix = regexp.MustCompile(`(localhost|127\.0\.0\.1)(:\d+)?`)

// absPath matches a path written from its root: a slash that does not
// continue a longer word or relative path (internal/models/..., ./cmd/...).
var absPath = regexp.MustCompile("(?:^|[^A-Za-z0-9_.}/-])(/[A-Za-z][A-Za-z0-9_{}@/-]*)")

// mounted reports whether path matches one of the mux's patterns, a {name}
// segment matching any one segment.
func mounted(path string) bool {
	segs := strings.Split(path, "/")
	for _, rt := range routes {
		pat := strings.Split(rt.pattern, "/")
		if len(pat) != len(segs) {
			continue
		}
		ok := true
		for i := range pat {
			ok = ok && (pat[i] == segs[i] || strings.HasPrefix(pat[i], "{") && segs[i] != "")
		}
		if ok {
			return true
		}
	}
	return false
}

// TestDocumentedRoutesMatchMux keeps README.md and ARCHITECTURE.md on the
// route table Handler mounts: each document names every mounted pattern, and
// every path either document writes from the root in the mux's vocabulary
// (/v1/..., or a flat /predict, /stats, ...) is a route the mux answers —
// concrete examples such as /v1/models/baseline@2/predict included.
func TestDocumentedRoutesMatchMux(t *testing.T) {
	vocab := map[string]bool{}
	for _, rt := range routes {
		for _, seg := range strings.Split(rt.pattern, "/")[1:] {
			vocab[seg] = !strings.HasPrefix(seg, "{")
		}
	}
	for _, doc := range []string{"../../README.md", "../../ARCHITECTURE.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := hostPrefix.ReplaceAllString(string(raw), " ")
		for _, rt := range routes {
			if !strings.Contains(text, rt.pattern) {
				t.Errorf("%s does not document mounted route %s", doc, rt.pattern)
			}
		}
		for _, m := range absPath.FindAllStringSubmatch(text, -1) {
			path := strings.TrimRight(m[1], "/")
			if first, _, _ := strings.Cut(path[1:], "/"); vocab[first] && !mounted(path) {
				t.Errorf("%s documents %s, which the mux does not mount", doc, path)
			}
		}
	}
}
