package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// postOversize posts a JSON body one byte over limit — an object whose
// string value is still open at the cap, so only the cap can stop the
// read — and checks the route answers 413 with a JSON {"error"} body.
func postOversize(t *testing.T, url string, limit int64) {
	t.Helper()
	prefix := `{"name":"`
	body := prefix + strings.Repeat("a", int(limit)+1-len(prefix))
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST %s with a %d-byte body: status %d, want 413", url, len(body), resp.StatusCode)
	}
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc["error"] == "" {
		t.Errorf("POST %s: want a JSON {\"error\"} body, got %v (decode err %v)", url, doc, err)
	}
}

// TestOversizeBodiesRejected bounds every client-controlled request body
// on a single node: lake-create, table-upsert and submit.
func TestOversizeBodiesRejected(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	t.Run("lake-create", func(t *testing.T) {
		postOversize(t, st.ts.URL+"/v1/lakes", maxJSONBody)
	})
	t.Run("table-upsert", func(t *testing.T) {
		defer func(old int64) { maxUploadBody = old }(maxUploadBody)
		maxUploadBody = 4 << 10
		url := st.ts.URL + "/v1/lakes/lake-test/tables"
		postOversize(t, url, maxUploadBody)
		// A table under the cap still registers.
		if resp := postJSON(t, url, tableUpsertRequest{Name: "small", CSV: "k,v\n1,10\n2,20\n"}, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("table under the cap: status %d, want 200", resp.StatusCode)
		}
	})
	t.Run("submit", func(t *testing.T) {
		postOversize(t, st.ts.URL+"/v1/discoveries", maxJSONBody)
	})
}

// TestClusterOversizeBodiesRejected bounds the coordinator routes that
// decode a client body: lake-create and the worker heartbeat.
func TestClusterOversizeBodiesRejected(t *testing.T) {
	cs := newClusterStack(t, 1, ClusterConfig{}, Config{Workers: 1})
	t.Run("lake-create", func(t *testing.T) {
		postOversize(t, cs.coordTS.URL+"/v1/lakes", maxJSONBody)
	})
	t.Run("heartbeat", func(t *testing.T) {
		postOversize(t, cs.coordTS.URL+"/cluster/v1/heartbeat", maxJSONBody)
	})
}
