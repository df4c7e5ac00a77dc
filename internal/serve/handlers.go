// Package serve is lscatter-served's service layer: a stdlib net/http JSON
// API that accepts deployment specs, validates and normalizes them, runs
// them as background jobs on the deterministic experiments worker pool, and
// caches finished result bodies in a content-addressed artifact store keyed
// by (spec-hash, seed).
//
// The determinism contract the end-to-end tests pin: two submissions with
// the same normalized spec and seed return byte-identical result bodies, at
// any server worker count, and the second is served from the store without
// recompute. See docs/SERVING.md for the API reference.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"lscatter/internal/store"
)

// Server is the HTTP skin over a Manager.
type Server struct {
	manager *Manager
}

// NewServer builds a server plus its manager from the options. It fails only
// when the durable artifact store cannot be opened.
func NewServer(opts Options) (*Server, error) {
	m, err := NewManager(opts)
	if err != nil {
		return nil, err
	}
	return &Server{manager: m}, nil
}

// Manager exposes the underlying job manager (shutdown, tests).
func (s *Server) Manager() *Manager { return s.manager }

// Handler returns the API routes:
//
//	POST   /v1/runs              submit a deployment spec
//	GET    /v1/runs              list runs (submission order)
//	GET    /v1/runs/{id}         run status + progress
//	GET    /v1/runs/{id}/results finished result body (byte-stable)
//	GET    /v1/runs/{id}/events  SSE stream of per-tag progress rows
//	DELETE /v1/runs/{id}         cancel a run
//	GET    /healthz              liveness
//	GET    /metricsz             job counters + artifact-store stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricsz", s.handleMetrics)
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	return mux
}

// writeJSON renders v; API responses are small, so encoding errors can only
// be broken pipes, which the server has no recovery for anyway.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsDoc is the /metricsz body. Disk is present only when the server
// runs with a durable artifact store (-artifact-dir).
type metricsDoc struct {
	Jobs  Counters          `json:"jobs"`
	Store store.MemoryStats `json:"store"`
	Disk  *store.DiskStats  `json:"disk,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := metricsDoc{
		Jobs:  s.manager.Counters(),
		Store: s.manager.Store().Stats(),
	}
	if disk := s.manager.Disk(); disk != nil {
		st := disk.Stats()
		doc.Disk = &st
	}
	writeJSON(w, http.StatusOK, doc)
}

// submitDoc is the POST /v1/runs response: the job snapshot plus the links
// a client polls next.
type submitDoc struct {
	JobStatus
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	normalized, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.manager.Submit(normalized)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := job.Status()
	writeJSON(w, http.StatusAccepted, submitDoc{
		JobStatus:  st,
		StatusURL:  "/v1/runs/" + st.ID,
		ResultsURL: "/v1/runs/" + st.ID + "/results",
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]JobStatus{"runs": s.manager.Jobs()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Look the job up first: a finished job may be evicted between Cancel
	// and a later lookup, and its status no longer changes.
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	s.manager.Cancel(r.PathValue("id"))
	writeJSON(w, http.StatusOK, job.Status())
}

// handleResults serves the stored result body verbatim: the bytes written
// here are exactly the bytes in the artifact store, which is what the
// byte-identical caching contract promises.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	body, done := job.Results()
	if !done {
		st := job.Status()
		switch st.State {
		case Failed, Canceled:
			writeError(w, http.StatusGone, "run %s is %s: %s", st.ID, st.State, st.Error)
		default:
			writeError(w, http.StatusConflict, "run %s is %s (%d/%d tags); poll %s",
				st.ID, st.State, st.Done, st.Total, "/v1/runs/"+st.ID)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", job.ETag())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleEvents streams a run's progress as server-sent events: one
// "progress" event per finished tag (overall counters plus that tag's
// report), then exactly one "end" event carrying the terminal state and, for
// successful runs, the result body's ETag. The backlog replays to late
// subscribers, so attaching after completion still yields the stream's tail.
//
// The producer never blocks on this handler: events are read from the job's
// log at the consumer's pace, so a slow or disconnecting client cannot stall
// or cancel the underlying run. Client disconnect just ends the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	i := 0
	for {
		evs, next, terminal, wait := job.EventsSince(i)
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			_ = rc.Flush()
		}
		i = next
		if terminal {
			return // the end event has been delivered
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
