package exec

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
)

// WorkerStats is a worker's /statsz snapshot. Served counts successful job
// round-trips; Computed/Restored split them by whether the worker's
// (checkpointed) executor actually ran the job or answered it from the
// shared artifact store — the numbers tools/distcheck sums to prove a
// sharded sweep computed every artifact exactly once.
type WorkerStats struct {
	Served   uint64 `json:"served"`
	Errors   uint64 `json:"errors"`
	Computed uint64 `json:"computed"`
	Restored uint64 `json:"restored"`
}

// statser is implemented by Checkpointed; a worker over a bare RunFunc
// reports computed == served.
type statser interface {
	Stats() (computed, restored uint64)
}

// WorkerHandler is the HTTP skin of one lscatter-worker process: a thin
// job-execution endpoint over any Executor. The protocol (see
// docs/DISTRIBUTED.md):
//
//	POST /v1/jobs   {"id": "...", "seed": N} → 200 artifact bytes
//	GET  /healthz   liveness
//	GET  /statsz    WorkerStats
//
// Responses other than 200 carry a JSON {"error": "..."} body. The handler
// is stateless beyond counters; determinism and persistence live in the
// executor stack behind it.
type WorkerHandler struct {
	ex  Executor
	mux *http.ServeMux

	served, errors atomic.Uint64
}

// NewWorkerHandler builds the worker endpoint over an executor.
func NewWorkerHandler(ex Executor) *WorkerHandler {
	h := &WorkerHandler{ex: ex, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/jobs", h.handleJob)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeWorkerJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	h.mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeWorkerJSON(w, http.StatusOK, h.Stats())
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *WorkerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Stats snapshots the worker counters.
func (h *WorkerHandler) Stats() WorkerStats {
	st := WorkerStats{Served: h.served.Load(), Errors: h.errors.Load()}
	if s, ok := h.ex.(statser); ok {
		st.Computed, st.Restored = s.Stats()
	} else {
		st.Computed = st.Served
	}
	return st
}

func writeWorkerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (h *WorkerHandler) handleJob(w http.ResponseWriter, r *http.Request) {
	var job Job
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil || job.ID == "" {
		h.errors.Add(1)
		writeWorkerJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad job: %v", err)})
		return
	}
	body, err := h.ex.Submit(r.Context(), job)
	if err != nil {
		h.errors.Add(1)
		writeWorkerJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	h.served.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
