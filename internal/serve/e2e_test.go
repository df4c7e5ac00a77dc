package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startServer boots a full server over httptest and arranges shutdown.
func startServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	api, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := api.Manager().Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts, api
}

// submit POSTs a spec and decodes the accepted job document.
func submit(t *testing.T, ts *httptest.Server, spec string) submitDoc {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var doc submitDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return doc
}

// await polls the status endpoint until the run is terminal.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case Done, Failed, Canceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s (%d/%d)", id, st.State, st.Done, st.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// results fetches the finished body verbatim.
func results(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d: %s", resp.StatusCode, body)
	}
	return body
}

func metrics(t *testing.T, ts *httptest.Server) metricsDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

const e2eSpec = `{"venue":"mall","tags":6,"seed":12345}`

// TestE2ESubmitPollFetch is the acceptance path: submit a spec, poll to
// completion, fetch per-tag results, and check the document's shape.
func TestE2ESubmitPollFetch(t *testing.T) {
	ts, _ := startServer(t, Options{Workers: 2})

	// Liveness first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	doc := submit(t, ts, e2eSpec)
	if doc.State == Failed {
		t.Fatalf("submission failed: %+v", doc)
	}
	st := await(t, ts, doc.ID)
	if st.State != Done {
		t.Fatalf("run finished %s: %s", st.State, st.Error)
	}
	if st.Done != 6 || st.Total != 6 {
		t.Fatalf("progress %d/%d, want 6/6", st.Done, st.Total)
	}

	var rd ResultDoc
	body := results(t, ts, doc.ID)
	if err := json.Unmarshal(body, &rd); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if rd.Result == nil || rd.Result.Tags != 6 || len(rd.Result.PerTag) != 6 {
		t.Fatalf("result shape: %+v", rd.Result)
	}
	if rd.Key.SpecHash != st.SpecHash || rd.Key.Seed != 12345 {
		t.Fatalf("result key %+v does not match status %+v", rd.Key, st)
	}
	if rd.Result.Throughput.N != 6 {
		t.Fatalf("aggregate over %d tags, want 6", rd.Result.Throughput.N)
	}
}

// TestE2ECacheHitByteIdentical pins the caching contract: the second
// submission of an identical (spec, seed) returns the same run body byte for
// byte and is served from the artifact store without recompute.
func TestE2ECacheHitByteIdentical(t *testing.T) {
	ts, _ := startServer(t, Options{Workers: 2})

	first := submit(t, ts, e2eSpec)
	if st := await(t, ts, first.ID); st.State != Done {
		t.Fatalf("first run %s: %s", st.State, st.Error)
	}
	firstBody := results(t, ts, first.ID)
	before := metrics(t, ts)

	// Same spec spelled differently (explicit defaults) — same cache slot.
	second := submit(t, ts, `{"venue":"mall","tags":6,"seed":12345,"traffic":"lte","hour":12}`)
	if !second.CacheHit {
		t.Fatalf("second submission was not a cache hit: %+v", second)
	}
	if second.State != Done {
		t.Fatalf("cache-hit job born %s, want done", second.State)
	}
	secondBody := results(t, ts, second.ID)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cache hit served different bytes:\n%s\nvs\n%s", firstBody, secondBody)
	}

	after := metrics(t, ts)
	if after.Jobs.Computed != before.Jobs.Computed {
		t.Fatalf("cache hit recomputed: computed %d -> %d", before.Jobs.Computed, after.Jobs.Computed)
	}
	if after.Jobs.CacheHits != before.Jobs.CacheHits+1 {
		t.Fatalf("cache hits %d -> %d, want +1", before.Jobs.CacheHits, after.Jobs.CacheHits)
	}
	if after.Store.Hits == 0 {
		t.Fatal("store recorded no hits")
	}

	// A different seed is a different computation.
	third := submit(t, ts, `{"venue":"mall","tags":6,"seed":54321}`)
	if third.CacheHit {
		t.Fatal("different seed reported a cache hit")
	}
	if st := await(t, ts, third.ID); st.State != Done {
		t.Fatalf("third run %s: %s", st.State, st.Error)
	}
	if bytes.Equal(firstBody, results(t, ts, third.ID)) {
		t.Fatal("different seed produced identical bytes")
	}
}

// TestE2EWorkerCountIndependence runs the same spec on servers with
// different worker counts (both the job pool and the per-job tag pool) and
// requires byte-identical result bodies.
func TestE2EWorkerCountIndependence(t *testing.T) {
	configs := []Options{
		{Workers: 1, JobWorkers: 1},
		{Workers: 2, JobWorkers: 3},
		{Workers: 4, JobWorkers: 8},
	}
	var bodies [][]byte
	for _, opts := range configs {
		ts, _ := startServer(t, opts)
		doc := submit(t, ts, e2eSpec)
		if st := await(t, ts, doc.ID); st.State != Done {
			t.Fatalf("workers=%+v: run %s: %s", opts, st.State, st.Error)
		}
		bodies = append(bodies, results(t, ts, doc.ID))
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("result bytes differ between worker configs %+v and %+v:\n%s\nvs\n%s",
				configs[0], configs[i], bodies[0], bodies[i])
		}
	}
}

// TestE2EExactModeRun exercises the bit-true chain through the API at the
// narrowest bandwidth, mild impairment ladder rung included.
func TestE2EExactModeRun(t *testing.T) {
	ts, _ := startServer(t, Options{Workers: 1, JobWorkers: 2})
	doc := submit(t, ts, `{"mode":"exact","bandwidth":"1.4MHz","tags":2,"subframes":2,"impairment":"mild","max_tag_to_ue_ft":6,"seed":3}`)
	st := await(t, ts, doc.ID)
	if st.State != Done {
		t.Fatalf("exact run %s: %s", st.State, st.Error)
	}
	var rd ResultDoc
	if err := json.Unmarshal(results(t, ts, doc.ID), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Result.SyncedTags == 0 {
		t.Fatal("no tag synced in the close-range exact run")
	}
}

// TestE2EErrorPaths covers the API's failure statuses.
func TestE2EErrorPaths(t *testing.T) {
	ts, _ := startServer(t, Options{Workers: 1})

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"venue":"moon"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad venue: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"venu":"home"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"mode":"exact","bandwidth":"1.4MHz","lane":"fxp"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fxp lane: %d, want 400", resp.StatusCode)
	} else if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "float") {
		t.Fatalf("fxp lane rejection %q does not name float", body)
	}

	if resp, _ := http.Get(ts.URL + "/v1/runs/run-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Results for an unfinished (large) run: 409, then cancel and expect 410.
	doc := submit(t, ts, `{"tags":50000,"seed":9}`)
	resp, err := http.Get(ts.URL + "/v1/runs/" + doc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished results: %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+doc.ID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d, want 200", cresp.StatusCode)
	}
	if st := await(t, ts, doc.ID); st.State != Canceled {
		t.Fatalf("canceled run ended %s", st.State)
	}
	gresp, err := http.Get(ts.URL + "/v1/runs/" + doc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusGone {
		t.Fatalf("canceled results: %d, want 410", gresp.StatusCode)
	}
}

// TestE2EListRuns checks the listing endpoint's submission order.
func TestE2EListRuns(t *testing.T) {
	ts, _ := startServer(t, Options{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		doc := submit(t, ts, fmt.Sprintf(`{"tags":2,"seed":%d}`, i))
		ids = append(ids, doc.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Runs []JobStatus `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 3 {
		t.Fatalf("listed %d runs, want 3", len(doc.Runs))
	}
	for i, st := range doc.Runs {
		if st.ID != ids[i] {
			t.Fatalf("listing order %v does not match submission order %v", doc.Runs, ids)
		}
	}
}
