package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The registry sweeps below are shared by every test that only reads a whole
// sweep's results, so the test binary regenerates the registry at most once
// sequentially and once on a pool. Tests must not mutate the shared slices or
// the Results they point to.
const (
	sweepSeed    = 1
	sweepWorkers = 8
)

var (
	seqOnce  sync.Once
	seqSweep []*Result

	poolOnce  sync.Once
	poolSweep []*Result
	poolErr   error
)

// sequentialSweep returns All(sweepSeed), computed once per test binary.
func sequentialSweep() []*Result {
	seqOnce.Do(func() { seqSweep = All(sweepSeed) })
	return seqSweep
}

// pooledSweep returns RunAll(sweepSeed) on sweepWorkers workers, computed
// once per test binary.
func pooledSweep(t *testing.T) []*Result {
	t.Helper()
	poolOnce.Do(func() {
		poolSweep, poolErr = RunAll(context.Background(), sweepSeed, sweepWorkers)
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	return poolSweep
}

func TestDeriveSeedDecorrelatesArtifacts(t *testing.T) {
	seen := map[uint64]string{}
	for _, id := range IDs() {
		s := DeriveSeed(1, id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("artifacts %s and %s derive the same seed %d", prev, id, s)
		}
		seen[s] = id
	}
	if DeriveSeed(1, "F23") == DeriveSeed(2, "F23") {
		t.Fatal("master seed does not influence the derived seed")
	}
	if DeriveSeed(7, "F23") != DeriveSeed(7, "F23") {
		t.Fatal("derivation is not deterministic")
	}
}

// TestRunAllMatchesSequential is the harness determinism guarantee: a
// concurrent pool must reproduce the sequential path byte for byte, for
// every artifact.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every artifact twice")
	}
	seq, par := sequentialSweep(), pooledSweep(t)
	ids := IDs()
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("result counts: sequential %d, parallel %d, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		s, p := seq[i], par[i]
		if s.ID != id || p.ID != id {
			t.Fatalf("position %d: IDs %s / %s, want %s", i, s.ID, p.ID, id)
		}
		if !reflect.DeepEqual(s.Header, p.Header) {
			t.Errorf("%s: headers differ", id)
		}
		if !reflect.DeepEqual(s.Rows, p.Rows) {
			t.Errorf("%s: rows differ between sequential and %d-worker runs", id, sweepWorkers)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ", id)
		}
	}
}

func TestRunAllAttachesMetrics(t *testing.T) {
	for _, res := range pooledSweep(t) {
		m := res.Metrics
		if m == nil {
			t.Fatalf("%s: no metrics attached", res.ID)
		}
		if m.ID != res.ID || m.Rows != len(res.Rows) {
			t.Fatalf("%s: metrics mismatch: %+v", res.ID, m)
		}
		if m.Seed != DeriveSeed(sweepSeed, res.ID) {
			t.Fatalf("%s: ran with seed %d, want derived seed", res.ID, m.Seed)
		}
		if m.WallSeconds < 0 {
			t.Fatalf("%s: negative wall time", res.ID)
		}
	}
}

func TestRunAllCancelledContextStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAll(ctx, 1, 2)
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	ran := 0
	for _, r := range results {
		if r != nil {
			ran++
		}
	}
	if ran != 0 {
		t.Fatalf("%d artifacts ran despite pre-cancelled context", ran)
	}
}

func TestRunOneUsesSeedVerbatim(t *testing.T) {
	res, ok := RunOne("T1", 9)
	if !ok {
		t.Fatal("T1 not found")
	}
	if res.Metrics == nil || res.Metrics.Seed != 9 {
		t.Fatalf("RunOne metrics = %+v, want verbatim seed 9", res.Metrics)
	}
	if _, ok := RunOne("nope", 1); ok {
		t.Fatal("unknown artifact reported success")
	}
}

func TestBuildReportRoundTripsJSON(t *testing.T) {
	rep := BuildReport(sweepSeed, sweepWorkers, 1500*time.Millisecond, pooledSweep(t))
	if rep.Seed != sweepSeed || rep.Workers != sweepWorkers || rep.WallSeconds != 1.5 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Artifacts) != len(IDs()) {
		t.Fatalf("report has %d artifacts, want %d", len(rep.Artifacts), len(IDs()))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Artifacts) != len(rep.Artifacts) || back.Artifacts[0].ID != IDs()[0] {
		t.Fatalf("round trip lost artifacts: %+v", back.Artifacts[:1])
	}
	if back.Cache.Hits+back.Cache.Misses == 0 {
		t.Fatal("report records no waveform-cache traffic")
	}
}
