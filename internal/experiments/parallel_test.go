package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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

// fakeRun is the synthetic runner the pool and checkpoint tests share: the
// Result depends only on the job, like every registered runner's.
func fakeRun(j job, worker int) (*Result, error) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", j.id, j.seed)))
	return &Result{
		ID:     j.id,
		Title:  "synthetic",
		Header: []string{"seed", "digest"},
		Rows:   [][]string{{fmt.Sprint(j.seed), fmt.Sprintf("%x", sum[:8])}},
	}, nil
}

func fakeJobs(n int) []job {
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{id: fmt.Sprintf("J%02d", i), seed: uint64(1000 + i)}
	}
	return jobs
}

// runJobs runs jobs through run on RunOrdered, the way RunAll runs the
// registry.
func runJobs(ctx context.Context, jobs []job, run runFunc, workers int) ([]*Result, error) {
	return RunOrdered(ctx, len(jobs), workers, func(i, worker int) (*Result, error) {
		return run(jobs[i], worker)
	})
}

// requireSameRenders fails unless got and want render identically, slot by
// slot.
func requireSameRenders(t *testing.T, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil || got[i].Render() != want[i].Render() {
			t.Fatalf("result %d differs:\n%v\nvs\n%v", i, got[i], want[i])
		}
	}
}

// TestPoolDeterministicAcrossWorkerCounts pins RunOrdered's core contract:
// identical results in identical order at any worker count, with every
// worker slot inside the pool size.
func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := fakeJobs(17)
	want, err := runJobs(context.Background(), jobs, fakeRun, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 17, 99} {
		size := poolSize(workers, len(jobs))
		var badSlot atomic.Int32
		got, err := RunOrdered(context.Background(), len(jobs), workers, func(i, worker int) (*Result, error) {
			if worker < 0 || worker >= size {
				badSlot.Store(1)
			}
			return fakeRun(jobs[i], worker)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if badSlot.Load() != 0 {
			t.Fatalf("workers=%d: a call ran on a slot outside [0, %d)", workers, size)
		}
		requireSameRenders(t, got, want)
	}
}

func TestPoolStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		run := func(j job, worker int) (*Result, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return fakeRun(j, worker)
		}
		results, err := runJobs(ctx, fakeJobs(64), run, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		nils := 0
		for _, r := range results {
			if r == nil {
				nils++
			}
		}
		if nils == 0 {
			t.Fatalf("workers=%d: cancelled run completed every job", workers)
		}
	}
}

func TestPoolStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		run := func(j job, worker int) (*Result, error) {
			if j.id == "J03" {
				return nil, boom
			}
			ran.Add(1)
			return fakeRun(j, worker)
		}
		results, err := runJobs(context.Background(), fakeJobs(64), run, workers)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if results[3] != nil {
			t.Fatalf("workers=%d: failed job has a result", workers)
		}
		if int(ran.Load()) >= 63 {
			t.Fatalf("workers=%d: pool did not stop dispatching after the error", workers)
		}
	}
}

// TestPoolSize pins the worker count a `-metrics` report records: NumCPU
// for a request of 0, never more than the registry holds — RunOrdered's
// rule, which RunDeployment shares.
func TestPoolSize(t *testing.T) {
	n := len(IDs())
	for _, tc := range []struct{ req, want int }{
		{0, min(runtime.NumCPU(), n)},
		{-1, min(runtime.NumCPU(), n)},
		{1, 1},
		{2, 2},
		{n, n},
		{99, n},
	} {
		if got := PoolSize(tc.req); got != tc.want {
			t.Errorf("PoolSize(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	// The same rule for any job count RunOrdered is handed.
	for _, tc := range []struct{ req, n, want int }{
		{0, 1, 1},
		{-3, 1, 1},
		{0, 0, 0},
		{4, 3, 3},
		{2, 9, 2},
	} {
		if got := poolSize(tc.req, tc.n); got != tc.want {
			t.Errorf("poolSize(%d, %d) = %d, want %d", tc.req, tc.n, got, tc.want)
		}
	}
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
