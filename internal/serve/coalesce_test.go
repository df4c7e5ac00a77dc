package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// The tests in this file pin the request-coalescing contract under the race
// detector (make ci runs the suite with -race): concurrent identical
// submissions execute exactly one deployment run, every waiter receives the
// same byte-identical body, cancelling one waiter never disturbs the others,
// and shutdown mid-coalesce completes every attached job.

// coalesceSpec is big enough that the run is still in flight while the
// other submissions land (a submission burst takes microseconds; 3000 tags
// take seconds), so they attach instead of cache-hitting — yet small enough
// that a graceful shutdown drains it inside the test timeouts even under the
// race detector's slowdown.
func coalesceSpec(t testing.TB) *Spec { return normalized(t, 3000, 4242) }

func TestCoalesceConcurrentIdenticalSubmissions(t *testing.T) {
	m := newManager(t, Options{Workers: 4, QueueDepth: 64, JobWorkers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	const clients = 8
	jobs := make([]*Job, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			j, err := m.Submit(coalesceSpec(t))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	close(start)
	wg.Wait()

	var bodies [][]byte
	for i, j := range jobs {
		if j == nil {
			t.Fatal("a submission failed")
		}
		<-j.Finished()
		st := j.Status()
		if st.State != Done {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
		body, ok := j.Results()
		if !ok {
			t.Fatalf("job %d done without a body", i)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("waiter %d received different bytes than waiter 0", i)
		}
	}

	ctr := m.Counters()
	// The acceptance bar: exactly one deployment ran for the 8 identical
	// submissions. All 20000-tag, the run far outlives the submission burst,
	// so every later submission attached to the first's flight.
	if ctr.Runs != 1 || ctr.Computed != 1 {
		t.Fatalf("want exactly one run/computation, got %+v", ctr)
	}
	if ctr.Coalesced != clients-1 {
		t.Fatalf("coalesced %d joins, want %d: %+v", ctr.Coalesced, clients-1, ctr)
	}
	if ctr.CacheHits+ctr.DiskHits+ctr.Coalesced+ctr.Runs != ctr.Submitted {
		t.Fatalf("ledger unbalanced: %+v", ctr)
	}
	// Exactly one job is the flight lead; the rest report coalesced.
	leads := 0
	for _, j := range jobs {
		if !j.Status().Coalesced {
			leads++
		}
	}
	if leads != 1 {
		t.Fatalf("%d flight leads among %d jobs, want 1", leads, clients)
	}
}

func TestCoalesceCancelOneOfN(t *testing.T) {
	m := newManager(t, Options{Workers: 2, QueueDepth: 64, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	const clients = 6
	var jobs []*Job
	for i := 0; i < clients; i++ {
		j, err := m.Submit(coalesceSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Cancel one attached waiter (not the lead) while the run is in flight.
	victim := jobs[2]
	if !m.Cancel(victim.Status().ID) {
		t.Fatal("cancel reported unknown job")
	}
	<-victim.Finished()
	if st := victim.Status(); st.State != Canceled {
		t.Fatalf("victim ended %s, want canceled", st.State)
	}

	// The computation survives: every other waiter completes with the body.
	var want []byte
	for i, j := range jobs {
		if j == victim {
			continue
		}
		<-j.Finished()
		st := j.Status()
		if st.State != Done {
			t.Fatalf("waiter %d ended %s: %s", i, st.State, st.Error)
		}
		body, _ := j.Results()
		if want == nil {
			want = body
		} else if !bytes.Equal(want, body) {
			t.Fatalf("waiter %d body differs", i)
		}
	}

	ctr := m.Counters()
	if ctr.Runs != 1 || ctr.Computed != 1 {
		t.Fatalf("want exactly one computation despite the cancel, got %+v", ctr)
	}
	if ctr.Canceled != 1 {
		t.Fatalf("canceled %d jobs, want exactly the victim: %+v", ctr.Canceled, ctr)
	}
	if ctr.CacheHits+ctr.DiskHits+ctr.Coalesced+ctr.Runs != ctr.Submitted {
		t.Fatalf("ledger unbalanced: %+v", ctr)
	}

	// A canceled waiter must not have received the body.
	if _, ok := victim.Results(); ok {
		t.Fatal("canceled waiter still exposes a result body")
	}
}

func TestCoalesceCancelAllWaitersAbortsRun(t *testing.T) {
	m := newManager(t, Options{Workers: 1, QueueDepth: 16, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := m.Submit(coalesceSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Cancel every waiter: the computation loses its last interested client
	// and must abort instead of running to completion.
	for _, j := range jobs {
		m.Cancel(j.Status().ID)
	}
	for i, j := range jobs {
		<-j.Finished()
		if st := j.Status(); st.State != Canceled {
			t.Fatalf("job %d ended %s, want canceled", i, st.State)
		}
	}
	ctr := m.Counters()
	if ctr.Computed != 0 {
		t.Fatalf("run completed despite all waiters canceling: %+v", ctr)
	}
	if ctr.Canceled != 3 {
		t.Fatalf("canceled %d, want 3: %+v", ctr.Canceled, ctr)
	}

	// The key is free again: a fresh submission starts a fresh run.
	j, err := m.Submit(coalesceSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Finished()
	if st := j.Status(); st.State != Done {
		t.Fatalf("post-abort resubmission ended %s: %s", st.State, st.Error)
	}
}

func TestCoalesceShutdownMidCoalesce(t *testing.T) {
	m := newManager(t, Options{Workers: 2, QueueDepth: 64, JobWorkers: 2})

	const clients = 5
	var jobs []*Job
	for i := 0; i < clients; i++ {
		j, err := m.Submit(coalesceSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Graceful shutdown while the coalesced flight is in the air: the run
	// drains and every attached job finishes Done with the same body.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var want []byte
	for i, j := range jobs {
		select {
		case <-j.Finished():
		default:
			t.Fatalf("job %d not finished after graceful shutdown", i)
		}
		st := j.Status()
		if st.State != Done {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
		body, _ := j.Results()
		if want == nil {
			want = body
		} else if !bytes.Equal(want, body) {
			t.Fatalf("job %d body differs after shutdown", i)
		}
	}
	ctr := m.Counters()
	if ctr.Runs != 1 || ctr.Computed != 1 {
		t.Fatalf("want one computation through shutdown, got %+v", ctr)
	}
}

func TestCoalesceHurriedShutdownCancelsFlight(t *testing.T) {
	m := newManager(t, Options{Workers: 1, QueueDepth: 16, JobWorkers: 1})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(normalized(t, 100000, 999))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// A context that expires immediately forces the hurry path: the flight
	// is canceled and every attached job must still reach a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := m.Shutdown(ctx)
	for i, j := range jobs {
		<-j.Finished()
		st := j.Status()
		if st.State == Queued || st.State == Running {
			t.Fatalf("job %d left %s after hurried shutdown", i, st.State)
		}
	}
	// err is nil if the run won the race, ctx.Err() otherwise — both fine;
	// the invariant is no stuck jobs either way.
	_ = err
}

// TestCoalescedJobsShareProgressEvents pins the progress fan-out: two jobs
// attached to one flight from before it starts see the same progress rows,
// marshaled once and shared by both logs, each encoded as marshalEvent(progressEvent{…}) and
// carrying the tag report the result body holds for that tag.
func TestCoalescedJobsShareProgressEvents(t *testing.T) {
	m := newManager(t, Options{Workers: 1, QueueDepth: 16, JobWorkers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	// The one manager worker is busy with the blocker, so both submissions
	// of the spec under test join one queued flight before it runs.
	blocker, err := m.Submit(coalesceSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	spec := normalized(t, 24, 99)
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !jobs[1].Status().Coalesced {
		t.Fatal("second submission did not coalesce")
	}
	m.Cancel(blocker.Status().ID)

	var rows [2][]string
	for i, j := range jobs {
		<-j.Finished()
		if st := j.Status(); st.State != Done {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
		evs, _, _, _ := j.EventsSince(0)
		for _, ev := range evs {
			if ev.Type == "progress" {
				rows[i] = append(rows[i], ev.Data)
			}
		}
	}
	if len(rows[0]) != spec.Tags || len(rows[1]) != spec.Tags {
		t.Fatalf("progress rows: %d and %d, want %d each", len(rows[0]), len(rows[1]), spec.Tags)
	}

	body, _ := jobs[0].Results()
	var doc ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	for k, data := range rows[0] {
		if rows[1][k] != data {
			t.Fatalf("row %d differs between the coalesced jobs:\n%s\n%s", k, data, rows[1][k])
		}
		// One marshal per row: both logs hold the same string, not copies.
		if unsafe.StringData(rows[1][k]) != unsafe.StringData(data) {
			t.Fatalf("row %d was marshaled once per job", k)
		}
		var p progressEvent
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatal(err)
		}
		if p.Done != k+1 || p.Total != spec.Tags || p.Tag == nil {
			t.Fatalf("row %d: %s", k, data)
		}
		want := doc.Result.PerTag[p.Tag.Tag]
		if got := marshalEvent(progressEvent{Done: k + 1, Total: spec.Tags, Tag: &want}); got != data {
			t.Fatalf("row %d encoding:\n%s\nwant\n%s", k, data, got)
		}
	}
}
