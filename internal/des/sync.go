package des

// Mailbox is an unbounded FIFO message queue between processes. Sends
// never block; receives park the caller until a message arrives.
type Mailbox[T any] struct {
	k     *Kernel
	name  string
	msgs  queue[T]
	queue waitQueue
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel, name string) *Mailbox[T] {
	return &Mailbox[T]{k: k, name: name}
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.msgs.len() }

// Send enqueues v and wakes one parked receiver, if any. Send is safe to
// call from event callbacks as well as processes.
func (m *Mailbox[T]) Send(v T) {
	m.msgs.push(v)
	m.queue.wakeOne()
}

// Recv returns the oldest message, parking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for {
		if v, ok := m.msgs.pop(); ok {
			return v
		}
		m.queue.push(p)
		p.park()
	}
}

// TryRecv returns the oldest message without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) { return m.msgs.pop() }

// Semaphore is a counting semaphore for processes.
type Semaphore struct {
	k     *Kernel
	avail int
	queue waitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n < 0 {
		panic("des: negative semaphore count")
	}
	return &Semaphore{k: k, avail: n}
}

// Acquire takes one permit, parking p until one is available. Waiters
// are served FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 && s.queue.empty() {
		s.avail--
		return
	}
	s.queue.push(p)
	p.park()
	// Ownership was transferred by Release; the permit is already ours.
}

// TryAcquire takes a permit if one is immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.queue.empty() {
		s.avail--
		return true
	}
	return false
}

// Release returns one permit, waking the oldest waiter if any. The
// permit passes directly to the waiter (no barging).
func (s *Semaphore) Release() {
	if !s.queue.wakeOne() {
		s.avail++
	}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiting reports the number of parked acquirers.
func (s *Semaphore) Waiting() int { return s.queue.len() }

// Barrier parks processes until a target count arrive, then releases
// them all and resets (a cyclic barrier).
type Barrier struct {
	k      *Kernel
	target int
	n      int
	queue  waitQueue
	cycles int
}

// NewBarrier returns a barrier that trips every target arrivals.
func NewBarrier(k *Kernel, target int) *Barrier {
	if target <= 0 {
		panic("des: barrier target must be positive")
	}
	return &Barrier{k: k, target: target}
}

// Await blocks p until target processes have arrived.
func (b *Barrier) Await(p *Proc) {
	b.n++
	if b.n >= b.target {
		b.n = 0
		b.cycles++
		b.queue.wakeAll()
		return
	}
	b.queue.push(p)
	p.park()
}

// Cycles reports how many times the barrier has tripped.
func (b *Barrier) Cycles() int { return b.cycles }

// Latch is a one-shot completion signal: processes wait until Open is
// called; afterwards Wait returns immediately.
type Latch struct {
	k     *Kernel
	open  bool
	queue waitQueue
}

// NewLatch returns a closed latch.
func NewLatch(k *Kernel) *Latch { return &Latch{k: k} }

// Open releases all current and future waiters. Idempotent.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	l.queue.wakeAll()
}

// Opened reports whether the latch has been opened.
func (l *Latch) Opened() bool { return l.open }

// Wait parks p until the latch opens.
func (l *Latch) Wait(p *Proc) {
	if l.open {
		return
	}
	l.queue.push(p)
	p.park()
}
