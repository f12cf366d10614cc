package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"
)

// FuzzSolveRequest drives arbitrary bodies through the solve decoder and
// normaliser. Neither may panic; an accepted request must name a
// canonical algorithm, and its coalescing key must be stable: normalising
// the normalised request again yields the same key.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"chunks":3,"options":{"algorithm":"hopcount","workers":1}}`,
		`{"chunks":3,"options":{"partition":{"regions":2,"halo":-1},"explain":true}}`,
		`{"chunks":2,"timeoutMs":5,"options":{"capacities":[1,2,3],"alphaStep":0.5}}`,
		`{"algorithm":"cont"}`,
		`{"options":{"algorithm":"BRTF","searchBudget":10}}`,
		`{"chunks":1}{}`,
		`{"options":null}`,
	} {
		f.Add([]byte(seed))
	}
	canonical := []string{"Appx", "Dist", "Hopc", "Cont", "Brtf"}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		if err := decodeJSON(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &req); err != nil {
			return
		}
		alg, opts, nerr := req.normalize()
		if nerr != nil {
			return
		}
		if !slices.Contains(canonical, opts.Algorithm) || alg.String() != opts.Algorithm {
			t.Fatalf("accepted request carries algorithm %q (%q), not a canonical name", opts.Algorithm, alg)
		}
		key := solveKey(req.Chunks, opts)
		again, err := json.Marshal(SolveRequest{Chunks: req.Chunks, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		var req2 SolveRequest
		if err := decodeJSON(httptest.NewRequest("POST", "/", bytes.NewReader(again)), &req2); err != nil {
			t.Fatalf("normalised request %s no longer decodes: %v", again, err)
		}
		_, opts2, nerr := req2.normalize()
		if nerr != nil {
			t.Fatalf("normalised request %s no longer normalises: %v", again, nerr)
		}
		if key2 := solveKey(req2.Chunks, opts2); key2 != key {
			t.Fatalf("unstable solve key: %s vs %s", key, key2)
		}
	})
}
