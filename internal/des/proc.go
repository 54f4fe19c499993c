package des

import (
	"errors"
	"fmt"
)

// Proc is a simulated process: a coroutine whose execution the kernel
// interleaves with events deterministically. At most one process (or the
// kernel) runs at a time; a process gives up control by parking (Delay,
// mailbox receive, resource acquisition) and is resumed by kernel events.
// Each switch is a direct coroutine transfer (iter.Pull): the body parks
// by yielding and the kernel resumes it by pulling the next value.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	slot  int // index in k.live while the process is live
	dead  bool
}

// errClosed unwinds a parked process body when Kernel.Close stops it.
var errClosed = errors.New("des: kernel closed")

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now is shorthand for p.Kernel().Now().
func (p *Proc) Now() float64 { return p.k.now }

// retire marks p finished and drops it from the live set. Idempotent.
func (k *Kernel) retire(p *Proc) {
	if p.dead {
		return
	}
	p.dead = true
	last := k.live[len(k.live)-1]
	last.slot = p.slot
	k.live[p.slot] = last
	k.live[len(k.live)-1] = nil
	k.live = k.live[:len(k.live)-1]
}

// park suspends the process until something resumes it. Must only be
// called from the process's own body. When Close stops the process,
// park unwinds the body instead of returning.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errClosed)
	}
}

// Park suspends the process until another simulation context calls
// Resume. It is the low-level hook for resource implementations in
// other packages (CPU hosts, links); application code should prefer the
// higher-level primitives.
func (p *Proc) Park() { p.park() }

// resume transfers control to a parked process until it parks again or
// finishes (next reports ok == false; the body's wrapper has already
// retired it). Must only be called from kernel context (inside an event
// callback), never from another process.
func (p *Proc) resume() {
	if p.dead {
		panic(fmt.Sprintf("des: resume of dead process %q", p.name))
	}
	p.next()
}

// Resume schedules the process to be woken at the current virtual time.
// Safe to call from any simulation context (event or another process).
func (p *Proc) Resume() { p.k.wakeAt(p.k.now, p) }

// Delay advances the process by d seconds of virtual time. A zero delay
// still parks, so same-time events interleave fairly.
func (p *Proc) Delay(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	p.k.wakeAt(p.k.now+d, p)
	p.park()
}

// Close stops every live process and drops all pending events. Parked
// processes unwind from the point where they parked, running their
// deferred calls; processes that never started are discarded. A kernel
// holds its parked processes (and everything they reference) until it is
// closed, so callers that are done with a kernel should close it. Close
// is idempotent; it must not be called from inside a process or event.
func (k *Kernel) Close() {
	if k.running {
		panic("des: Close called from inside Run")
	}
	k.closing = true
	defer func() { k.closing = false }()
	for len(k.live) > 0 {
		p := k.live[len(k.live)-1]
		p.stop()
		k.retire(p) // a never-started body has no wrapper to retire it
	}
	for _, e := range k.heap.items {
		e.index = -1
	}
	clear(k.heap.items)
	k.heap.items = k.heap.items[:0]
}

// queue is a FIFO that reuses its backing array: popped slots are
// zeroed, and the array rewinds when the queue drains or compacts when
// the consumed prefix is at least half of a full array.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *queue[T]) pop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// waitQueue is a FIFO of parked processes used by the synchronization
// primitives and resources.
type waitQueue struct{ queue[*Proc] }

func (q *waitQueue) empty() bool { return q.len() == 0 }

// wakeOne resumes the oldest waiter, reporting whether there was one.
func (q *waitQueue) wakeOne() bool {
	p, ok := q.pop()
	if ok {
		p.Resume()
	}
	return ok
}

// wakeAll resumes every waiter in FIFO order.
func (q *waitQueue) wakeAll() {
	for q.wakeOne() {
	}
}
