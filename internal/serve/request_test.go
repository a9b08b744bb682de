package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeNodes runs the decoder the v1 predict handler picks for the method:
// the query parser for GET (target carries the query), the body decoder for
// POST.
func decodeNodes(method, target, body string) (PredictRequest, error) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if method == http.MethodPost {
		return DecodePredictBody(httptest.NewRecorder(), req)
	}
	nodes, err := ParseNodesQuery(req)
	return PredictRequest{Nodes: nodes}, err
}

// TestHTTPPredict covers the wire forms of a predict request.
func TestHTTPPredict(t *testing.T) {
	cases := []struct {
		method, target, body string
		want                 PredictRequest
	}{
		{"GET", "/?node=3", "", PredictRequest{Nodes: []int{3}}},
		{"GET", "/?nodes=1,%205", "", PredictRequest{Nodes: []int{1, 5}}},
		{"POST", "/", `{"nodes":[1,5]}`, PredictRequest{Nodes: []int{1, 5}}},
		{"POST", "/", `{"all":true}`, PredictRequest{All: true}},
	}
	for _, c := range cases {
		got, err := decodeNodes(c.method, c.target, c.body)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %s %s = %+v %v, want %+v", c.method, c.target, c.body, got, err, c.want)
		}
	}
}

// TestHTTPErrors drives malformed and truncated requests through the
// decoders: each must fail with a named-op ("serve: ...") error that maps to
// 400, never panic.
func TestHTTPErrors(t *testing.T) {
	cases := []struct{ name, method, target, body string }{
		{"truncated json", "POST", "/", `{"nodes":[1,`},
		{"not json", "POST", "/", `garbage`},
		{"wrong type", "POST", "/", `{"nodes":"1,2"}`},
		{"bad id", "GET", "/?node=abc", ""},
		{"bad id in set", "GET", "/?nodes=1,,2", ""},
		{"missing params", "GET", "/", ""},
	}
	for _, c := range cases {
		_, err := decodeNodes(c.method, c.target, c.body)
		if err == nil || !strings.HasPrefix(err.Error(), "serve:") {
			t.Errorf("%s: want a named-op error, got %v", c.name, err)
		} else if PredictStatus(err) != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, PredictStatus(err))
		}
	}
}
