package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// badTimeouts are timeout_seconds values no job can run with: 1e10
// seconds overflows time.Duration (it used to become -2562047h and fail
// the job after it was accepted), and a negative or sub-nanosecond
// timeout is no timeout at all.
var badTimeouts = []float64{1e10, 9.3e9, -1, 1e-10}

// checkRejected submits req and checks it is answered 400 with a JSON
// {"error"} body.
func checkRejected(t *testing.T, url string, req submitRequest) {
	t.Helper()
	var doc map[string]string
	resp := postJSON(t, url, req, &doc)
	if resp.StatusCode != http.StatusBadRequest || doc["error"] == "" {
		t.Errorf("timeout_seconds %v: status %d body %v, want 400 with an error", req.TimeoutSeconds, resp.StatusCode, doc)
	}
}

func TestSubmitRejectsUnrunnableTimeout(t *testing.T) {
	st := newStack(t, Config{Workers: 1})
	for _, ts := range badTimeouts {
		checkRejected(t, st.ts.URL+"/v1/discoveries",
			submitRequest{Lake: "lake-test", Base: st.ds.Base.Name(), Label: st.ds.Label, TimeoutSeconds: ts})
	}
}

func TestClusterSubmitRejectsUnrunnableTimeout(t *testing.T) {
	cs := newClusterStack(t, 1, ClusterConfig{}, Config{Workers: 1})
	for _, ts := range badTimeouts {
		checkRejected(t, cs.coordTS.URL+"/v1/discoveries",
			submitRequest{Lake: "lake-001", Base: cs.ds.Base.Name(), Label: cs.ds.Label, TimeoutSeconds: ts})
	}
}

func TestSubmitTimeoutValidation(t *testing.T) {
	for _, body := range []string{
		`{"lake":"l","base":"b","label":"y"}`,
		`{"lake":"l","base":"b","label":"y","timeout_seconds":0.5}`,
		`{"lake":"l","base":"b","label":"y","timeout_seconds":9e9}`,
	} {
		var req submitRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.validate(); err != nil {
			t.Errorf("%s: %v, want accepted", body, err)
		}
	}
}

func TestSubmitKnobsBounded(t *testing.T) {
	req := submitRequest{TimeoutSeconds: 30, Workers: 1 << 20}
	if got := req.config(10 * time.Second).Timeout; got != 10*time.Second {
		t.Errorf("timeout over the service default: %v, want the 10s cap", got)
	}
	if got := req.config(time.Minute).Timeout; got != 30*time.Second {
		t.Errorf("timeout under the service default: %v, want 30s", got)
	}
	if got := req.config(0).Timeout; got != 30*time.Second {
		t.Errorf("timeout with no service default: %v, want 30s", got)
	}
	if got := (submitRequest{}).config(10 * time.Second).Timeout; got != 10*time.Second {
		t.Errorf("unset timeout: %v, want the 10s default", got)
	}
	if got, want := req.config(0).Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("workers %d: got %d, want GOMAXPROCS %d", req.Workers, got, want)
	}
	if got := (submitRequest{Workers: 1}).config(0).Workers; got != 1 {
		t.Errorf("workers 1: got %d", got)
	}
}
