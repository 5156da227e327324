package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastClientOptions keeps retry tests quick: millisecond backoff.
func fastClientOptions() ClientOptions {
	return ClientOptions{MaxAttempts: 5,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

// TestClientRetriesTemporary: 503 then 500 then success — the client
// retries through both and reports two retries.
func TestClientRetriesTemporary(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		case 2:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "oops"})
		default:
			writeJSON(w, http.StatusOK, JobStatus{ID: "j1", Key: "k1", State: "done"})
		}
	}))
	defer ts.Close()

	c := NewClient(ts.URL, fastClientOptions())
	st, err := c.Submit(context.Background(), &JobRequest{Kernel: "TB"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "j1" || st.Key != "k1" {
		t.Errorf("status = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
}

// TestClientPermanentFailureNoRetry: a validation failure (400) is
// returned immediately as a typed APIError.
func TestClientPermanentFailureNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown gpu"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, fastClientOptions())
	_, err := c.Submit(context.Background(), &JobRequest{Kernel: "TB"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != 400 || ae.Msg != "unknown gpu" || ae.Temporary() {
		t.Errorf("APIError = %+v (temporary=%v)", ae, ae.Temporary())
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 400)", got)
	}
}

// TestClientParsesRetryAfter: the Retry-After header on a shed response
// lands in the typed error.
func TestClientParsesRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "queue full"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ClientOptions{MaxAttempts: 1})
	_, err := c.Submit(context.Background(), &JobRequest{Kernel: "TB"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != 429 || ae.RetryAfter != 7 || !ae.Temporary() {
		t.Errorf("APIError = %+v", ae)
	}
}

// TestClientBackoffRespectsContext: with an always-failing server and a
// long Retry-After, cancellation cuts the backoff short and the last
// server failure (not the bare context error) is reported.
func TestClientBackoffRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "overloaded"})
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := NewClient(ts.URL, fastClientOptions())
	start := time.Now()
	_, err := c.Submit(ctx, &JobRequest{Kernel: "TB"})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Submit blocked %v despite context cancellation", elapsed)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 503 {
		t.Errorf("err = %v, want the provoking 503", err)
	}
}

// TestClientResultMissIsDefinitive: a 404 from the results endpoint is
// never retried.
func TestClientResultMissIsDefinitive(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no cached result"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, fastClientOptions())
	_, err := c.Result(context.Background(), "missing")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("err = %v, want a 404 APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1", got)
	}
}

// TestClientTransportFaultRetries: a connection-level failure (server
// closed) exhausts the attempts and surfaces the transport error.
func TestClientTransportFaultRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // immediately: every dial fails

	c := NewClient(ts.URL, ClientOptions{MaxAttempts: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	_, err := c.Submit(context.Background(), &JobRequest{Kernel: "TB"})
	if err == nil {
		t.Fatal("Submit against a dead server succeeded")
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2 (3 attempts)", got)
	}
}
