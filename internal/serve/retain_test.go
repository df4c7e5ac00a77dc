package serve

import (
	"net/http"
	"sync"
	"testing"

	"lscatter/internal/store"
)

// TestManagerEvictsOldestFinishedJobs submits three times the retention
// bound from concurrent clients while a job that never finishes sits in the
// table, and checks that the table stays bounded, the oldest finished job is
// gone from the manager and the HTTP surface, the newest jobs are still
// served, and the unfinished job is never evicted.
func TestManagerEvictsOldestFinishedJobs(t *testing.T) {
	ts, api := startServer(t, Options{Workers: 1, JobWorkers: 1})
	m := api.Manager()
	const bound = maxRetainedJobs + maxRetainedJobs/4

	spec := normalized(t, 2, 31)
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Finished()
	firstID := first.Status().ID

	// A job registered without a flight stays queued forever.
	m.mu.Lock()
	live := m.newJobLocked(store.Key{SpecHash: "never-runs"}, 1)
	m.registerLocked(live)
	m.mu.Unlock()
	liveID := live.Status().ID

	const clients, perClient = 4, 3 * maxRetainedJobs / 4
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		newest string
		stop   = make(chan struct{})
		peak   int
	)
	// A reader lists the table throughout and records its largest size.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(m.Jobs()); n > peak {
				peak = n
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j, err := m.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if st := j.Status(); !st.CacheHit || st.State != Done {
					t.Errorf("repeat submission not a finished hit: %+v", st)
					return
				}
				mu.Lock()
				if id := j.Status().ID; id > newest {
					newest = id
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	jobs := m.Jobs()
	if len(jobs) > bound || peak > bound {
		t.Fatalf("job table holds %d (peak %d), bound %d", len(jobs), peak, bound)
	}
	if got, want := m.Counters().Submitted, uint64(2+clients*perClient); got != want {
		t.Fatalf("submitted %d, want %d", got, want)
	}
	sawLive := false
	for i, st := range jobs {
		if i > 0 && st.ID <= jobs[i-1].ID {
			t.Fatalf("listing out of submission order at %d: %s after %s", i, st.ID, jobs[i-1].ID)
		}
		sawLive = sawLive || st.ID == liveID
	}
	if !sawLive {
		t.Fatalf("unfinished job %s evicted from the listing", liveID)
	}
	if j, ok := m.Get(liveID); !ok || j.Status().State != Queued {
		t.Fatalf("unfinished job %s: retained %v", liveID, ok)
	}

	if _, ok := m.Get(firstID); ok {
		t.Fatalf("oldest finished job %s still retained", firstID)
	}
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/runs/" + firstID},
		{http.MethodGet, "/v1/runs/" + firstID + "/results"},
		{http.MethodGet, "/v1/runs/" + firstID + "/events"},
		{http.MethodDelete, "/v1/runs/" + firstID},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}

	if _, ok := m.Get(newest); !ok {
		t.Fatalf("newest job %s evicted", newest)
	}
	if body := results(t, ts, newest); len(body) == 0 {
		t.Fatalf("newest job %s served an empty body", newest)
	}
}
