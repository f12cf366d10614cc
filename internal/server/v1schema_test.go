package server

import (
	"net/http"
	"testing"
)

// TestSolveSchemaV1 is the table-driven contract test for the v1 solve
// schema: every per-solve knob lives under options, algorithm aliases
// echo their canonical names, and the pre-consolidation flat spellings
// are unknown fields the strict decoder answers with a typed 400.
func TestSolveSchemaV1(t *testing.T) {
	cases := []struct {
		name          string
		req           any
		wantAlgorithm string // "" expects a bad_request
		wantPartition bool
	}{
		{
			name:          "canonical nested options",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "Dist", Workers: 1}},
			wantAlgorithm: "Dist",
		},
		{
			name:          "empty request defaults to Appx",
			req:           SolveRequest{Chunks: 3},
			wantAlgorithm: "Appx",
		},
		{
			name:          "legacy alias parses to canonical name",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "hopcount"}},
			wantAlgorithm: "Hopc",
		},
		{
			name:          "canonical options.partition carries no note",
			req:           SolveRequest{Chunks: 3, Options: &SolveOptions{Partition: &PartitionSpec{Regions: 2}}},
			wantAlgorithm: "Appx",
			wantPartition: true,
		},
		{name: "flat algorithm rejected", req: map[string]any{"chunks": 3, "algorithm": "cont"}},
		{name: "flat workers rejected", req: map[string]any{"chunks": 3, "workers": 1}},
		{name: "flat algorithm beside nested options rejected", req: map[string]any{
			"chunks": 3, "algorithm": "dist", "options": map[string]any{"algorithm": "appx"},
		}},
		{name: "flat partition fields rejected", req: map[string]any{"chunks": 3, "partitionRegions": 2}},
		{name: "options.partitionRegions rejected", req: map[string]any{
			"chunks": 3, "options": map[string]any{"partitionRegions": 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTestClient(t, Options{})
			reg := c.registerGrid(4, 4, 5)
			path := "/v1/topologies/" + reg.ID + "/solve"
			if tc.wantAlgorithm == "" {
				c.wantError("POST", path, tc.req, http.StatusBadRequest, CodeBadRequest)
				return
			}
			var resp SolveResponse
			c.doJSON("POST", path, tc.req, &resp, http.StatusOK)
			if resp.Algorithm != tc.wantAlgorithm {
				t.Errorf("algorithm = %q, want %q", resp.Algorithm, tc.wantAlgorithm)
			}
			if (resp.Partition != nil) != tc.wantPartition {
				t.Errorf("partition report present = %v, want %v", resp.Partition != nil, tc.wantPartition)
			}
			if resp.Version != 2 || len(resp.Holders) != 3 {
				t.Errorf("response not a committed 3-chunk v2 placement: %+v", resp)
			}
		})
	}
}

// TestSolveSchemaErrors checks schema violations answer the typed error
// envelope.
func TestSolveSchemaErrors(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	cases := []struct {
		name string
		body any
		code string
	}{
		{"unknown algorithm", SolveRequest{Options: &SolveOptions{Algorithm: "lru"}}, CodeBadRequest},
		{"unknown flat algorithm", map[string]any{"algorithm": "banana"}, CodeBadRequest},
		{"unknown field", map[string]any{"algorithmm": "appx"}, CodeBadRequest},
		{"negative chunks", SolveRequest{Chunks: -1}, CodeBadRequest},
		{"partition on non-appx", SolveRequest{
			Options: &SolveOptions{Algorithm: "dist", Partition: &PartitionSpec{Regions: 2}},
		}, CodeBadRequest},
		{"capacity above the topology's", SolveRequest{Options: &SolveOptions{Capacity: 6}}, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve", tc.body, http.StatusBadRequest, tc.code)
		})
	}
}
