package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"lscatter/internal/ltephy"
	"lscatter/internal/serve"
)

// The served-mix manager: workers × job workers stays at the two processors
// the benchmark is sized for, and the memory store holds two bodies so that
// a client's older results are evicted to the disk store within a round.
const (
	servedWorkers      = 2
	servedJobWorkers   = 1
	servedStoreEntries = 2
	servedClients      = 2
)

// servedEnv is the served-mix set-up: the manager and its artifact dir.
type servedEnv struct {
	m   *serve.Manager
	dir string
}

func newServedEnv(workDir string) (*servedEnv, error) {
	dir, err := os.MkdirTemp(workDir, "artifacts-")
	if err != nil {
		return nil, err
	}
	m, err := serve.NewManager(serve.Options{
		Workers:      servedWorkers,
		JobWorkers:   servedJobWorkers,
		StoreEntries: servedStoreEntries,
		ArtifactDir:  dir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting manager: %w", err)
	}
	return &servedEnv{m: m, dir: dir}, nil
}

func (s *servedEnv) close() {
	_ = s.m.Shutdown(context.Background()) // a background context drains without error
	os.RemoveAll(s.dir)
}

func setupServed(e *env) error {
	s, err := newServedEnv(e.workDir)
	if err != nil {
		return err
	}
	e.served = s
	return nil
}

func teardownServed(e *env) {
	if e.served != nil {
		e.served.close()
		e.served = nil
	}
}

// roundSpecs is one client's individual submissions for one round, in
// order: fresh specs compute, an immediate repeat is a memory hit, and a
// repeat of a spec this client has put two other bodies in front of since
// its last use is a disk hit (the two-entry memory store evicted it).
func roundSpecs(r *rand.Rand) []serve.Spec {
	a, b, c := freshSemi(r), freshSemi(r), freshSemi(r)
	x := freshExact(r)
	return []serve.Spec{
		a, a, // fresh, memory hit
		b,    // fresh
		x, x, // fresh exact, memory hit
		a,    // disk hit
		c, c, // fresh, memory hit
		b, // disk hit
	}
}

var (
	mixVenues    = []string{"home", "mall", "outdoor"}
	mixTraffic   = []string{"lte", "wifi", "lora"}
	mixBandwidth = []string{"1.4MHz", "5MHz", "10MHz", "20MHz"}
	mixImpair    = []string{"off", "moderate"}
)

// freshSemi is a semi-analytic fleet of 60-140 tags.
func freshSemi(r *rand.Rand) serve.Spec {
	hour := float64(r.IntN(24))
	return serve.Spec{
		Venue:     mixVenues[r.IntN(len(mixVenues))],
		Traffic:   mixTraffic[r.IntN(len(mixTraffic))],
		Bandwidth: mixBandwidth[r.IntN(len(mixBandwidth))],
		Tags:      60 + r.IntN(81),
		Hour:      &hour,
		Seed:      r.Uint64(),
	}
}

// freshExact is a small 1.4 MHz exact job: 1-2 tags, 5 subframes each.
func freshExact(r *rand.Rand) serve.Spec {
	return serve.Spec{
		Mode:       "exact",
		Bandwidth:  "1.4MHz",
		Tags:       1 + r.IntN(2),
		Subframes:  5,
		Impairment: mixImpair[r.IntN(len(mixImpair))],
		Seed:       r.Uint64(),
	}
}

// barrier is a reusable rendezvous of the two clients. The last to arrive
// decides, once per generation, whether the mix continues.
type barrier struct {
	mu      sync.Mutex
	waiting int
	gen     *generation
	decide  func() bool
}

type generation struct {
	done chan struct{}
	cont bool
	at   time.Time
}

func newBarrier(decide func() bool) *barrier {
	return &barrier{gen: &generation{done: make(chan struct{})}, decide: decide}
}

func (b *barrier) wait() *generation {
	b.mu.Lock()
	g := b.gen
	b.waiting++
	if b.waiting == servedClients {
		g.cont, g.at = b.decide(), time.Now()
		b.waiting = 0
		b.gen = &generation{done: make(chan struct{})}
		close(g.done)
	}
	b.mu.Unlock()
	<-g.done
	return g
}

// firstBodies remembers the first computed body of every key, so that every
// later answer for the key can be compared with it byte for byte.
type firstBodies struct {
	mu sync.Mutex
	m  map[string][]byte
}

// check records body as the key's first if there is none yet, and reports
// whether it equals the first.
func (f *firstBodies) check(key string, body []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	first, ok := f.m[key]
	if !ok {
		f.m[key] = body
		return true
	}
	return bytes.Equal(first, body)
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	submitted, accepted, failed int
	runLat, hitLat              []float64 // Submit→Finished, seconds
	exactSim, exactWall         float64   // computed exact jobs: simulated vs host seconds
	problems                    []string
}

// mixClient submits its schedule one job at a time, waiting for each.
type mixClient struct {
	id     int
	m      *serve.Manager
	tr     *tracer
	bodies *firstBodies
	stats  clientStats
	jobs   int
}

// do submits one spec, waits for its job and checks the answer.
func (c *mixClient) do(spec serve.Spec) {
	c.stats.submitted++
	run := c.id*1_000_000 + c.jobs
	c.jobs++
	root := -1
	now := func() int64 { return 0 }
	stage := func(string, int64, int64) {}
	if c.tr != nil {
		root = c.tr.begin("serve.job", -1, run)
		defer c.tr.end(root)
		now = c.tr.now
		stage = func(name string, a, b int64) { c.tr.record(name, root, run, a, b) }
	}

	t0 := now()
	norm, err := spec.Normalize()
	t1 := now()
	stage("serve.normalize", t0, t1)
	if err != nil {
		c.stats.failed++
		c.stats.problems = append(c.stats.problems, err.Error())
		return
	}
	start := time.Now()
	job, err := c.m.Submit(norm)
	t2 := now()
	stage("serve.submit", t1, t2)
	if err != nil {
		// A refused or rejected submission fails and misses every latency
		// limit.
		c.stats.failed++
		c.stats.runLat = append(c.stats.runLat, math.Inf(1))
		if !errors.Is(err, serve.ErrQueueFull) {
			c.stats.problems = append(c.stats.problems, err.Error())
		}
		return
	}
	c.stats.accepted++
	select {
	case <-job.Finished():
	default:
		if c.tr != nil {
			waitFirstProgress(job)
			t3 := now()
			stage("serve.queue_wait", t2, t3)
			<-job.Finished()
			compute := "serve.compute_semi"
			if spec.Mode == "exact" {
				compute = "serve.compute_exact"
			}
			stage(compute, t3, now())
		}
		<-job.Finished()
	}
	lat := time.Since(start).Seconds()
	t5 := now()
	body, ok := job.Results()
	stage("serve.results", t5, now())

	st := job.Status()
	key := fmt.Sprintf("%s/%d", norm.Hash(), norm.Seed)
	if !ok || !bytes.Contains(body, []byte(norm.Hash())) || !c.bodies.check(key, body) {
		c.stats.failed++
		c.stats.problems = append(c.stats.problems, fmt.Sprintf("job %s (%s): wrong or missing result", st.ID, st.State))
		return
	}
	if st.CacheHit {
		c.stats.hitLat = append(c.stats.hitLat, lat)
		return
	}
	c.stats.runLat = append(c.stats.runLat, lat)
	if spec.Mode == "exact" && !st.Coalesced {
		c.stats.exactSim += float64(norm.Tags*norm.Subframes) * ltephy.SubframeDuration
		c.stats.exactWall += lat
	}
}

// waitFirstProgress returns at the job's first progress event, or when its
// stream ends without one.
func waitFirstProgress(job *serve.Job) {
	i := 0
	for {
		evs, next, terminal, wait := job.EventsSince(i)
		for _, ev := range evs {
			if ev.Type == "progress" {
				return
			}
		}
		if terminal {
			return
		}
		i = next
		<-wait
	}
}

// mixResult is one run of the mix against one manager.
type mixResult struct {
	clientStats
	rounds     int
	roundWalls []float64 // between consecutive joint-submission rendezvous
	wall       float64
}

// driveMix runs the two closed-loop clients against m for dur, in whole
// rounds: each client submits its round's individual ops, then both meet
// and submit the round's joint spec together. tr, when set, traces every
// job.
func driveMix(m *serve.Manager, seed uint64, dur time.Duration, tr *tracer) *mixResult {
	start := time.Now()
	bar := newBarrier(func() bool {
		// Both clients are waiting, so no job is in flight: drop the
		// round's waveforms, which no later job can hit, so that memory
		// does not grow with the number of rounds the run completes.
		ltephy.SharedCache.Reset()
		return time.Since(start) < dur
	})
	bodies := &firstBodies{m: map[string][]byte{}}
	clients := make([]*mixClient, servedClients)
	var (
		wg       sync.WaitGroup
		releases []time.Time
	)
	for i := range clients {
		clients[i] = &mixClient{id: i, m: m, tr: tr, bodies: bodies}
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			own := rand.New(rand.NewPCG(seed, uint64(c.id)+1))
			for round := 0; ; round++ {
				for _, spec := range roundSpecs(own) {
					c.do(spec)
				}
				g := bar.wait()
				if c.id == 0 {
					releases = append(releases, g.at)
				}
				shared := rand.New(rand.NewPCG(seed, 1<<32+uint64(round)))
				c.do(freshSemi(shared)) // one computes, the other coalesces
				if !g.cont {
					return
				}
			}
		}(clients[i])
	}
	wg.Wait()
	res := &mixResult{rounds: len(releases), wall: time.Since(start).Seconds()}
	prev := start
	for _, at := range releases {
		res.roundWalls = append(res.roundWalls, at.Sub(prev).Seconds())
		prev = at
	}
	for _, c := range clients {
		s := c.stats
		res.submitted += s.submitted
		res.accepted += s.accepted
		res.failed += s.failed
		res.runLat = append(res.runLat, s.runLat...)
		res.hitLat = append(res.hitLat, s.hitLat...)
		res.exactSim += s.exactSim
		res.exactWall += s.exactWall
		res.problems = append(res.problems, s.problems...)
	}
	return res
}

// checkLedger verifies the manager's counters against the clients' view:
// every accepted submission is classified exactly once, nothing failed or
// was canceled, and the mix reached the disk store, coalesced and computed.
func checkLedger(m *serve.Manager, res *mixResult, out *outcome) {
	c := m.Counters()
	out.attempted += res.submitted
	out.failed += res.failed
	out.problems = append(out.problems, res.problems...)
	if c.Submitted != c.CacheHits+c.DiskHits+c.Coalesced+c.Runs {
		out.fail("ledger: submitted %d != hits %d + disk hits %d + coalesced %d + runs %d",
			c.Submitted, c.CacheHits, c.DiskHits, c.Coalesced, c.Runs)
	}
	if c.Submitted != uint64(res.accepted) {
		out.fail("ledger: manager counted %d submissions, clients %d", c.Submitted, res.accepted)
	}
	if c.Computed != c.Runs || c.Failed != 0 || c.Canceled != 0 {
		out.fail("ledger: runs %d, computed %d, failed %d, canceled %d", c.Runs, c.Computed, c.Failed, c.Canceled)
	}
	if c.DiskHits == 0 || c.Coalesced == 0 || c.Computed == 0 {
		out.fail("mix did not exercise every tier: disk hits %d, coalesced %d, computed %d", c.DiskHits, c.Coalesced, c.Computed)
	}
}

// runServed is served-mix untraced.
func runServed(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	m := e.served.m
	res := driveMix(m, e.opts.seed, time.Duration(e.opts.seconds)*time.Second, nil)
	checkLedger(m, res, out)
	jobs := len(res.runLat) + len(res.hitLat)
	out.add("sweep_s", "s", median(res.roundWalls), fmt.Sprintf("median of %d rounds", len(res.roundWalls)))
	out.add("link_sim_s_per_s", "s/s", ratio(res.exactSim, res.exactWall), "computed exact jobs")
	out.add("served_jobs_per_s", "1/s", float64(jobs)/res.wall, fmt.Sprintf("%d jobs in %.2f s", jobs, res.wall))
	out.add("served_run_p50_ms", "ms", quantile(ms(res.runLat), 0.5), fmt.Sprintf("n=%d computed or coalesced", len(res.runLat)))
	out.add("served_run_p90_ms", "ms", quantile(ms(res.runLat), 0.9), fmt.Sprintf("n=%d computed or coalesced", len(res.runLat)))
	out.add("served_hit_p90_ms", "ms", quantile(ms(res.hitLat), 0.9), fmt.Sprintf("n=%d memory or disk hits", len(res.hitLat)))
	return out, nil
}

// servedStages are the client-side spans of one traced job.
var servedStages = []string{
	"serve.normalize", "serve.submit", "serve.queue_wait",
	"serve.compute_semi", "serve.compute_exact", "serve.results",
}

// runServedTraced is served-mix traced: the first half of the time runs the
// mix untraced against the set-up manager as the overhead reference, the
// second half runs the same schedule traced against a fresh manager and
// artifact dir.
func runServedTraced(ctx context.Context, e *env, tr *tracer) (*outcome, error) {
	out := &outcome{}
	half := time.Duration(e.opts.seconds) * time.Second / 2
	plain := driveMix(e.served.m, e.opts.seed, half, nil)
	checkLedger(e.served.m, plain, out)

	s, err := newServedEnv(e.workDir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// The traced half repeats the same exact specs: start it cold too.
	ltephy.SharedCache.Reset()
	c0, g0 := ltephy.SharedStats(), readGoStats()
	res := driveMix(s.m, e.opts.seed, half, tr)
	g := readGoStats().sub(g0)
	cache := ltephy.SharedStats().Delta(c0)
	checkLedger(s.m, res, out)

	per := float64(res.rounds)
	self, _, _ := tr.selfTimes()
	for _, name := range servedStages {
		out.add(name+"_s", "s", self[name]/per, "per round")
	}
	c := s.m.Counters()
	reused := float64(c.CacheHits + c.DiskHits + c.Coalesced)
	out.add("serve.reuse_ratio", "ratio", ratio(reused, float64(c.Submitted)), fmt.Sprintf("%.0f of %d submissions", reused, c.Submitted))
	out.add("serve.cache_hits", "count", float64(c.CacheHits)/per, "per round")
	out.add("serve.disk_hits", "count", float64(c.DiskHits)/per, "per round")
	out.add("serve.coalesced", "count", float64(c.Coalesced)/per, "per round")
	out.add("serve.computed", "count", float64(c.Computed)/per, "per round")
	out.add("serve.refused", "count", float64(res.submitted-res.accepted)/per, "per round")
	disk := s.m.Disk().Stats()
	out.add("store.disk_entries", "count", float64(disk.Entries)/per, "per round")
	out.add("store.disk_bytes", "bytes", float64(disk.Bytes)/per, "per round")
	out.add("ltephy.cache_hits", "count", float64(cache.Hits)/per, "per round")
	out.add("ltephy.cache_misses", "count", float64(cache.Misses)/per, "per round")
	out.add("ltephy.cache_evictions", "count", float64(cache.Evictions)/per, "per round")
	out.addGo(g, per, "round")
	out.addCoverage(tr)

	// Overhead over the rounds both halves completed: the schedule is the
	// same, so round k does the same work in each.
	k := min(len(plain.roundWalls), len(res.roundWalls))
	t, u := sum(res.roundWalls[:k]), sum(plain.roundWalls[:k])
	out.add("bench.trace_overhead_ratio", "ratio", ratio(t, u), fmt.Sprintf("traced %.3f s / untraced %.3f s over %d rounds", t, u, k))
	return out, nil
}
