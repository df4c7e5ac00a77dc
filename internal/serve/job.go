package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"

	"lscatter/internal/experiments"
	"lscatter/internal/store"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle: Queued -> Running -> one of Done/Failed/Canceled. A
// cache-hit submission is born Done; a coalesced submission is born attached
// to the in-flight run and follows its state.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Errors Submit returns when the service cannot take the job. Handlers map
// them to 503 and 429 respectively.
var (
	ErrShuttingDown = errors.New("serve: shutting down")
	ErrQueueFull    = errors.New("serve: job queue full")
)

// Job is one submitted deployment run from one client's point of view.
// Several jobs may share a single underlying computation (a flight) when
// identical specs are submitted concurrently. All mutable fields are guarded
// by mu; handlers read through Status, Results and EventsSince.
type Job struct {
	mu sync.Mutex

	id        string
	key       store.Key
	state     State
	cacheHit  bool
	coalesced bool
	done      int
	total     int
	err       string
	body      []byte
	events    eventLog

	fl       *flight // nil for born-done (cache/disk hit) jobs
	finished chan struct{}
}

// flight is one underlying deployment computation. The first submission of
// a key creates it; concurrent identical submissions attach to it instead of
// enqueueing duplicates (request coalescing, the singleflight pattern). The
// computation is canceled only when every attached job has been canceled.
// Guarded by the Manager's mu.
type flight struct {
	key      store.Key
	spec     *Spec
	jobs     []*Job // attached, in attach order; jobs[0] created the flight
	waiters  int    // attached jobs not yet individually canceled
	running  bool
	done     bool
	canceled bool
	ctx      context.Context
	cancel   context.CancelFunc
}

// JobStatus is the wire snapshot of a job, served at GET /v1/runs/{id}.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	SpecHash string `json:"spec_hash"`
	Seed     uint64 `json:"seed"`
	// CacheHit marks a submission answered from the artifact store (memory
	// or disk) without any computation.
	CacheHit bool `json:"cache_hit"`
	// Coalesced marks a submission that attached to an identical in-flight
	// run instead of starting its own.
	Coalesced bool   `json:"coalesced"`
	Done      int    `json:"progress_done"`
	Total     int    `json:"progress_total"`
	Error     string `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		State:     j.state,
		SpecHash:  j.key.SpecHash,
		Seed:      j.key.Seed,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Done:      j.done,
		Total:     j.total,
		Error:     j.err,
	}
}

// Results returns the finished result body, or false while the job has not
// completed successfully.
func (j *Job) Results() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil, false
	}
	return j.body, true
}

// Finished returns a channel closed when the job reaches a terminal state.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// terminal reports whether the job has reached a terminal state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events.terminal
}

// ETag is the strong validator served with the result body and carried by
// the stream's end event.
func (j *Job) ETag() string { return fmt.Sprintf("%q", j.key.SpecHash) }

// setProgress records a progress row whose event the caller marshaled once
// for every job attached to the flight.
func (j *Job) setProgress(done, total int, ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Done || j.state == Failed || j.state == Canceled {
		// An individually-canceled coalesced job already streamed its end
		// event; late rows from the still-running flight stay off its log.
		return
	}
	j.done, j.total = done, total
	j.events.appendLocked(ev)
}

func (j *Job) setRunning() {
	j.mu.Lock()
	if j.state == Queued {
		j.state = Running
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, reporting whether
// this call made the transition (so lifecycle counters count once even when
// a cancel races the worker). It appends the stream's end event.
func (j *Job) finish(state State, body []byte, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Done || j.state == Failed || j.state == Canceled {
		return false
	}
	j.state = state
	j.body = body
	j.err = errMsg
	end := endEvent{State: state, Error: errMsg}
	if state == Done {
		j.done = j.total
		end.ETag = fmt.Sprintf("%q", j.key.SpecHash)
	}
	j.events.appendLocked(Event{Type: "end", Data: marshalEvent(end)})
	j.events.terminal = true
	close(j.finished)
	return true
}

// bornDone completes a job at submission time from a stored body (memory or
// disk hit).
func (j *Job) bornDone(body []byte) {
	j.mu.Lock()
	j.cacheHit = true
	j.state = Done
	j.body = body
	j.done = j.total
	j.events.appendLocked(Event{Type: "end", Data: marshalEvent(endEvent{
		State: Done,
		ETag:  fmt.Sprintf("%q", j.key.SpecHash),
	})})
	j.events.terminal = true
	close(j.finished)
	j.mu.Unlock()
}

// Counters is the manager's observability snapshot, served at /metricsz.
//
// Every accepted submission is classified exactly once: CacheHits (answered
// from the memory store), DiskHits (answered from the durable store),
// Coalesced (attached to an identical in-flight run) or Runs (created a new
// computation). The submit-side ledger
//
//	Submitted == CacheHits + DiskHits + Coalesced + Runs
//
// holds at every instant; the race harness asserts it under contention.
// Started/Computed/Failed count flights (actual computations); Canceled
// counts jobs that ended canceled, whether individually or with their
// flight.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	CacheHits uint64 `json:"cache_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Coalesced uint64 `json:"coalesced"`
	Runs      uint64 `json:"runs"`
	Started   uint64 `json:"started"`
	Computed  uint64 `json:"computed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
}

// Options configures a Manager.
type Options struct {
	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// QueueDepth bounds the backlog of queued jobs (default 64); beyond it
	// Submit returns ErrQueueFull.
	QueueDepth int
	// StoreEntries bounds the in-memory artifact store (default 256).
	StoreEntries int
	// JobWorkers is the per-job tag-evaluation parallelism (default 4). It
	// never affects results: the deployment runner is deterministic at any
	// worker count.
	JobWorkers int
	// ArtifactDir, when non-empty, enables the durable on-disk artifact
	// store: results are written through on completion and promoted back
	// into the memory LRU on demand, so restarts keep the cache warm.
	ArtifactDir string
	// DiskMaxBytes bounds the on-disk store (default 256 MiB). Ignored
	// without ArtifactDir.
	DiskMaxBytes int64
	// Logf receives operational log lines (quarantined artifacts, disk
	// write failures). Defaults to log.Printf.
	Logf func(format string, args ...any)
}

// maxRetainedJobs bounds the job table. Finished jobs stay listed and
// servable (status, results, event replay) until the table grows a quarter
// past this bound; the oldest finished jobs are then dropped until it holds
// at most maxRetainedJobs again. Queued and running jobs are never dropped.
const maxRetainedJobs = 256

// Manager owns the job queue, the worker pool and the artifact stores. It is
// the service's only stateful component; handlers are a thin HTTP skin over
// it.
type Manager struct {
	opts  Options
	store *store.Memory
	disk  *store.DiskStore // nil when no ArtifactDir is configured

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	pruneAt  int      // table size at which registerLocked evicts finished jobs
	inflight map[store.Key]*flight
	nextID   uint64
	counters Counters
	closed   bool

	queue chan *flight
	wg    sync.WaitGroup
}

// NewManager starts a manager with its worker pool, opening the durable
// store when Options.ArtifactDir is set.
func NewManager(opts Options) (*Manager, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 4
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	m := &Manager{
		opts:     opts,
		store:    store.NewMemory(opts.StoreEntries),
		jobs:     make(map[string]*Job),
		pruneAt:  maxRetainedJobs + maxRetainedJobs/4,
		inflight: make(map[store.Key]*flight),
		queue:    make(chan *flight, opts.QueueDepth),
	}
	if opts.ArtifactDir != "" {
		disk, err := store.Open(opts.ArtifactDir, opts.DiskMaxBytes, opts.Logf)
		if err != nil {
			return nil, err
		}
		m.disk = disk
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Store exposes the in-memory artifact store (read-only use: stats, tests).
func (m *Manager) Store() *store.Memory { return m.store }

// Disk exposes the durable artifact store, nil when not configured.
func (m *Manager) Disk() *store.DiskStore { return m.disk }

// Counters snapshots the manager counters.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// newJobLocked builds an unregistered job; registerLocked admits it.
func (m *Manager) newJobLocked(key store.Key, total int) *Job {
	return &Job{
		id:       fmt.Sprintf("run-%06d", m.nextID+1),
		key:      key,
		state:    Queued,
		total:    total,
		events:   newEventLog(),
		finished: make(chan struct{}),
	}
}

func (m *Manager) registerLocked(job *Job) {
	m.nextID++
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.counters.Submitted++
	if len(m.order) > m.pruneAt {
		m.pruneLocked()
	}
}

// pruneLocked evicts the oldest finished jobs until at most maxRetainedJobs
// remain, skipping queued and running ones. The next prune waits for the
// table to grow by a quarter again, so each registration pays O(1)
// amortized even when live jobs hold the table above the bound. Lock order
// is the manager's mu, then a job's.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - maxRetainedJobs
	kept := m.order[:0]
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	clear(m.order[len(kept):])
	m.order = kept
	m.pruneAt = len(kept) + max(len(kept), maxRetainedJobs)/4
}

// Submit validates nothing — the caller passes a normalized spec — and
// resolves the request through the cache hierarchy: the in-memory store, the
// in-flight table (request coalescing: a concurrent identical submission
// attaches to the one running computation and receives the same
// byte-identical body), the durable on-disk store (lazy promotion into the
// memory LRU), and finally a new computation on the queue. The job is
// registered in every case, so the lifecycle endpoints work identically for
// hits, joins and misses.
//
// The in-memory checks and the enqueue run under the manager lock — the
// enqueue attempt is non-blocking, and serializing it against Shutdown's
// queue close is what keeps the two from racing. The disk probe reads and
// checksums a file, so it runs between lock holds; the second hold re-checks
// the memory store and the in-flight table before falling through to a new
// flight.
func (m *Manager) Submit(normalized *Spec) (*Job, error) {
	key := store.Key{SpecHash: normalized.Hash(), Seed: normalized.Seed}
	diskProbed := false
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrShuttingDown
		}
		job := m.newJobLocked(key, normalized.Tags)

		if body, ok := m.store.Get(key); ok {
			m.registerLocked(job)
			m.counters.CacheHits++
			m.mu.Unlock()
			job.bornDone(body)
			return job, nil
		}
		if fl, ok := m.inflight[key]; ok && !fl.canceled {
			job.coalesced = true
			job.fl = fl
			if fl.running {
				job.state = Running
			}
			fl.jobs = append(fl.jobs, job)
			fl.waiters++
			m.registerLocked(job)
			m.counters.Coalesced++
			m.mu.Unlock()
			return job, nil
		}
		if m.disk != nil && !diskProbed {
			m.mu.Unlock()
			// Disk I/O plus checksum verification happens outside the lock;
			// the loop re-checks the fast paths afterwards.
			body, ok := m.disk.Get(key)
			diskProbed = true
			if ok {
				m.mu.Lock()
				if m.closed {
					m.mu.Unlock()
					return nil, ErrShuttingDown
				}
				m.store.Put(key, body)
				job := m.newJobLocked(key, normalized.Tags)
				m.registerLocked(job)
				m.counters.DiskHits++
				m.mu.Unlock()
				job.bornDone(body)
				return job, nil
			}
			continue
		}

		fl := &flight{key: key, spec: normalized, jobs: []*Job{job}, waiters: 1}
		fl.ctx, fl.cancel = context.WithCancel(context.Background())
		job.fl = fl
		select {
		case m.queue <- fl:
			m.registerLocked(job)
			m.inflight[key] = fl
			m.counters.Runs++
			m.mu.Unlock()
			return job, nil
		default:
			m.mu.Unlock()
			fl.cancel()
			return nil, ErrQueueFull
		}
	}
}

// Get returns a retained job by ID; an evicted finished job is unknown.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists the retained jobs' statuses in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel requests cancellation of a job. Cancelling one job detaches it from
// its flight; the underlying computation is canceled only when no attached
// job still wants the result, so cancelling one of N coalesced submissions
// never disturbs the other N-1. Returns false for unknown IDs, true
// otherwise (including jobs already terminal).
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	if !j.finish(Canceled, nil, "canceled") {
		return true // already terminal
	}
	m.mu.Lock()
	m.counters.Canceled++
	var cancelFn context.CancelFunc
	if fl := j.fl; fl != nil && !fl.done {
		fl.waiters--
		if fl.waiters == 0 {
			// Last interested client gone: abort the computation. The worker
			// does the flight-level cleanup and accounting.
			fl.canceled = true
			cancelFn = fl.cancel
		}
	}
	m.mu.Unlock()
	if cancelFn != nil {
		cancelFn()
	}
	return true
}

// Shutdown stops accepting jobs, waits for the backlog to drain and the
// in-flight jobs to finish. If ctx expires first, running flights are
// canceled and Shutdown waits for the workers to observe it.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue) // under the lock, serialized against Submit's enqueue
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Hurry the pool: cancel every live flight, then wait for the
		// workers — per-tag boundaries are milliseconds, so this converges.
		m.mu.Lock()
		var cancels []context.CancelFunc
		for _, fl := range m.inflight {
			cancels = append(cancels, fl.cancel)
		}
		m.mu.Unlock()
		for _, c := range cancels {
			c()
		}
		<-drained
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for fl := range m.queue {
		m.runFlight(fl)
	}
}

// finishFlight retires a flight: removes it from the in-flight table (unless
// a successor already replaced it), snapshots the attached jobs and marks it
// done. Must complete before jobs are finished so no Submit can join a
// flight whose completion pass already ran.
func (m *Manager) finishFlight(fl *flight) []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	fl.done = true
	if m.inflight[fl.key] == fl {
		delete(m.inflight, fl.key)
	}
	return append([]*Job(nil), fl.jobs...)
}

// runFlight executes one deployment and completes every attached job with
// the same stored body.
func (m *Manager) runFlight(fl *flight) {
	m.mu.Lock()
	if fl.canceled || fl.ctx.Err() != nil {
		// Every waiter canceled while the flight sat in the queue; the
		// per-job accounting already happened in Cancel.
		m.mu.Unlock()
		for _, j := range m.finishFlight(fl) {
			if j.finish(Canceled, nil, "canceled before start") {
				m.countCancel()
			}
		}
		return
	}
	fl.running = true
	m.counters.Started++
	jobs := append([]*Job(nil), fl.jobs...)
	ctx := fl.ctx
	m.mu.Unlock()
	for _, j := range jobs {
		j.setRunning()
	}

	body, err := m.compute(ctx, fl)
	switch {
	case err == nil:
		// Store before retiring the flight: a Submit that misses the
		// in-flight table afterwards must hit the store. Submit already
		// probed the disk for this key, so the write-through is a plain Put.
		if m.disk != nil {
			m.disk.Put(fl.key, body)
		}
		m.store.Put(fl.key, body)
		// Count before finishing: a caller that sees its job finish must
		// also see the computation in Counters.
		m.mu.Lock()
		m.counters.Computed++
		m.mu.Unlock()
		for _, j := range m.finishFlight(fl) {
			j.finish(Done, body, "")
		}
	case errors.Is(err, context.Canceled):
		for _, j := range m.finishFlight(fl) {
			if j.finish(Canceled, nil, "canceled") {
				m.countCancel()
			}
		}
	default:
		m.mu.Lock()
		m.counters.Failed++
		m.mu.Unlock()
		for _, j := range m.finishFlight(fl) {
			j.finish(Failed, nil, err.Error())
		}
	}
}

// compute runs the flight's deployment with progress fanned out to every
// attached job and returns the canonical result body — the bytes the stores
// persist and every coalesced client receives. Each progress row is
// marshaled once and the one string is shared by every attached job's log.
func (m *Manager) compute(ctx context.Context, fl *flight) ([]byte, error) {
	progress := func(done, total int, tag experiments.TagReport) {
		ev := Event{Type: "progress", Data: marshalEvent(progressEvent{Done: done, Total: total, Tag: &tag})}
		m.mu.Lock()
		attached := append([]*Job(nil), fl.jobs...)
		m.mu.Unlock()
		for _, j := range attached {
			j.setProgress(done, total, ev)
		}
	}
	res, err := experiments.RunDeployment(ctx, fl.spec.Deployment(), m.opts.JobWorkers, progress)
	if err != nil {
		return nil, err
	}
	return buildResultBody(fl.key, fl.spec, res), nil
}

func (m *Manager) countCancel() {
	m.mu.Lock()
	m.counters.Canceled++
	m.mu.Unlock()
}

// ResultDoc is the served result body: the content address, the normalized
// spec it answers, and the aggregated deployment result. Struct field order
// fixes the byte layout; it is marshaled once per computation and stored
// verbatim, which is what makes the "byte-identical results" contract
// trivially auditable.
type ResultDoc struct {
	Key    store.Key                     `json:"key"`
	Spec   *Spec                         `json:"spec"`
	Result *experiments.DeploymentResult `json:"result"`
}

func buildResultBody(key store.Key, spec *Spec, res *experiments.DeploymentResult) []byte {
	b, err := json.MarshalIndent(&ResultDoc{Key: key, Spec: spec, Result: res}, "", "  ")
	if err != nil {
		// The document is a tree of plain structs and scalars.
		panic(fmt.Sprintf("serve: result marshal: %v", err))
	}
	return append(b, '\n')
}
