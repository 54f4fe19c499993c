package des

import "fmt"

// Kernel is the discrete-event simulation core: a virtual clock plus a
// heap of pending events. A Kernel is not safe for concurrent use; all
// interaction happens either before Run or from within event callbacks
// and processes, which the kernel serializes.
type Kernel struct {
	now  float64
	seq  uint64
	heap eventHeap
	live []*Proc // spawned and not finished

	running  bool
	stopped  bool
	closing  bool
	maxTime  float64
	hasLimit bool
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{}
}

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a simulation logic error, not a recoverable
// condition.
func (k *Kernel) At(t float64, fn func()) *Event {
	return k.schedule(t, fn, nil)
}

// wakeAt schedules a resumption of p at time t: an event without a
// callback closure.
func (k *Kernel) wakeAt(t float64, p *Proc) { k.schedule(t, nil, p) }

// schedule queues an event that calls fn, or resumes p if p is non-nil.
func (k *Kernel) schedule(t float64, fn func(), p *Proc) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, k.now))
	}
	k.seq++
	e := &Event{at: t, seq: k.seq, fn: fn, proc: p}
	k.heap.push(e)
	return e
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Cancel removes a pending event. Canceling an event that already fired
// or was already canceled is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.canceled || e.index < 0 {
		if e != nil {
			e.canceled = true
		}
		return
	}
	e.canceled = true
	k.heap.remove(e.index)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the heap drains, Stop is
// called, or the optional time limit set by RunUntil is reached. A panic
// in an event callback or process body propagates out of Run.
func (k *Kernel) Run() {
	if k.running {
		panic("des: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for k.heap.len() > 0 && !k.stopped {
		e := k.heap.pop()
		if e.canceled {
			continue
		}
		if k.hasLimit && e.at > k.maxTime {
			// Push back so a later RunUntil with a larger horizon
			// still sees the event.
			k.heap.push(e)
			k.now = k.maxTime
			return
		}
		k.now = e.at
		if e.proc != nil {
			e.proc.resume()
		} else {
			e.fn()
		}
	}
}

// RunUntil executes events with timestamps ≤ t, then leaves the clock at
// min(t, time of last event). Remaining events stay queued.
func (k *Kernel) RunUntil(t float64) {
	k.maxTime, k.hasLimit = t, true
	defer func() { k.hasLimit = false }()
	k.Run()
}

// Pending reports the number of queued events (canceled events that have
// not yet been popped are excluded).
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.heap.items {
		if e != nil && !e.canceled {
			n++
		}
	}
	return n
}

// Procs reports the number of live processes (spawned and not finished).
func (k *Kernel) Procs() int { return len(k.live) }
