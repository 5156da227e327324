package server

import "sync"

// jobQueue is the admission queue: a blocking FIFO, so jobs start in
// admission order. Unbounded by construction: the admission bound
// (Options.QueueDepth) is enforced by Submit, and journal replay may
// push past it before the workers start without deadlocking.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*job
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job and wakes one waiting worker. Pushing after Close
// drops the job; the server never does this (all pushes happen under the
// server lock with draining checked).
func (q *jobQueue) Push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, j)
	q.cond.Signal()
}

// Pop blocks until a job is available and returns the oldest. After
// Close it keeps returning queued jobs until the queue is empty (drain),
// then returns false.
func (q *jobQueue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return j, true
}

// Len returns the number of queued (not yet started) jobs.
func (q *jobQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close stops the queue: Pop drains the remaining items and then
// returns false to every worker.
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
