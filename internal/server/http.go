package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"warpsched/internal/analysis"
)

// JobStatus is the wire form of a job: the POST /v1/jobs and
// GET /v1/jobs/{id} payload.
type JobStatus struct {
	// ID addresses the job at GET /v1/jobs/{id}. It is the content key,
	// the same string as Key, so identical submissions share one id and
	// the id answers, once the job is done, for as long as a cache tier
	// holds the result.
	ID string `json:"id"`
	// Key is the result's content address (GET /v1/results/{key}).
	Key string `json:"key"`
	// State is queued, running or done.
	State string `json:"state"`
	// Cached reports that the result was served from the cache with no
	// engine run.
	Cached bool `json:"cached"`
	// Cycles is the live progress (cycles simulated so far) while
	// running, and the final cycle count once done.
	Cycles int64 `json:"cycles"`
	// Err is the simulation error, set only when done and failed.
	Err string `json:"err,omitempty"`
}

// errorBody is the JSON body of every non-2xx response. Findings use
// the same wire shape as `warplint -json` schema 2 (category, class,
// pc, other_pc); Schema names that version when findings are present.
type errorBody struct {
	Error    string             `json:"error"`
	Schema   int                `json:"schema,omitempty"`
	Findings []analysis.Finding `json:"findings,omitempty"`
}

// status snapshots a job for the wire.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{ID: j.key, Key: j.key, State: string(j.state), Cached: j.cached}
	if j.state == stateDone {
		st.Cycles, st.Err = j.cycles, j.err
	} else {
		st.Cycles = j.progress.Load()
	}
	return st
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs          submit a job (sync with "wait": true)
//	GET  /v1/jobs/{id}     job state and progress (the id is the result key)
//	GET  /v1/results/{key} full schema-2 result manifest
//	GET  /v1/stats         cache, queue and latency statistics
//	GET  /healthz          liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// maxRequestBytes bounds a job request body (inline programs included).
const maxRequestBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode request: " + err.Error()})
		return
	}
	j, rerr := s.Submit(&req)
	if rerr != nil {
		body := errorBody{Error: rerr.Msg, Findings: rerr.Findings}
		if len(rerr.Findings) > 0 {
			body.Schema = 2
		}
		if rerr.RetryAfter > 0 {
			// The queue-full 429 tells well-behaved clients when to come
			// back.
			w.Header().Set("Retry-After", strconv.Itoa(rerr.RetryAfter))
		}
		writeJSON(w, rerr.Status, body)
		return
	}
	if req.Wait {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, s.status(j))
		case <-r.Context().Done():
			// The client gave up; the job keeps running and stays
			// addressable by id.
			writeJSON(w, http.StatusRequestTimeout, errorBody{Error: "client cancelled; job continues as " + j.key})
		}
		return
	}
	st := s.status(j)
	code := http.StatusAccepted
	if st.State == string(stateDone) {
		code = http.StatusOK // admission-time cache hit
	}
	writeJSON(w, code, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id +
			": no job is queued or running under it and no result is stored; resubmit the request"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.Result(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no cached result for " + r.PathValue("key")})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.Manifest)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.drain
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
