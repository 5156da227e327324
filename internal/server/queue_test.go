package server

import (
	"sync"
	"testing"
)

func qjob(key string) *job {
	return &job{key: key, done: make(chan struct{})}
}

// TestQueueOrder: jobs pop in the order they were pushed, also when
// pushes and pops interleave.
func TestQueueOrder(t *testing.T) {
	q := newJobQueue()
	q.Push(qjob("a"))
	q.Push(qjob("b"))
	pop := func() string {
		t.Helper()
		j, ok := q.Pop()
		if !ok {
			t.Fatal("Pop: queue empty")
		}
		return j.key
	}
	got := pop()
	q.Push(qjob("c"))
	q.Push(qjob("d"))
	for q.Len() > 0 {
		got += pop()
	}
	if got != "abcd" {
		t.Errorf("pop order %q, want abcd", got)
	}
}

// TestQueueCloseDrains: Close lets Pop drain queued jobs, then every
// blocked or future Pop returns false.
func TestQueueCloseDrains(t *testing.T) {
	q := newJobQueue()
	q.Push(qjob("a"))
	q.Push(qjob("b"))
	q.Close()
	for i := 0; i < 2; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("Pop %d: queue gave up before draining", i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned a job from a closed empty queue")
	}
}

// TestQueueBlockedPopWakes: workers blocked in Pop wake on Push and on
// Close.
func TestQueueBlockedPopWakes(t *testing.T) {
	q := newJobQueue()
	var wg sync.WaitGroup
	got := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if j, ok := q.Pop(); ok {
			got <- j.key
		}
	}()
	q.Push(qjob("x"))
	wg.Wait()
	if key := <-got; key != "x" {
		t.Errorf("woken Pop got %q, want x", key)
	}

	exited := make(chan struct{})
	go func() {
		defer close(exited)
		if _, ok := q.Pop(); ok {
			t.Error("Pop returned a job after Close on an empty queue")
		}
	}()
	q.Close()
	<-exited
}
