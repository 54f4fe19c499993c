package des

// Event is a scheduled callback in virtual time. Events are created via
// Kernel.At / Kernel.After and may be canceled before they fire.
type Event struct {
	at       float64
	seq      uint64
	fn       func()
	proc     *Proc // resumed instead of calling fn when non-nil
	index    int   // position in the heap, -1 once fired or canceled
	canceled bool
}

// Time reports the virtual time at which the event is (or was) scheduled.
func (e *Event) Time() float64 { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// eventHeap is a binary min-heap ordered by (time, sequence). It is
// hand-rolled rather than using container/heap to keep the index
// bookkeeping explicit and allocation-free on the hot path.
type eventHeap struct {
	items []*Event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *eventHeap) push(e *Event) {
	e.index = len(h.items)
	h.items = append(h.items, e)
	h.up(e.index)
}

func (h *eventHeap) pop() *Event {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	top := h.items[0]
	h.swap(0, n-1)
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	top.index = -1
	return top
}

// remove deletes the event at position i, restoring heap order.
func (h *eventHeap) remove(i int) {
	n := len(h.items)
	if i < 0 || i >= n {
		return
	}
	h.items[i].index = -1
	if i == n-1 {
		h.items[n-1] = nil
		h.items = h.items[:n-1]
		return
	}
	h.swap(i, n-1)
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if !h.down(i) {
		h.up(i)
	}
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the item at i toward the leaves. It reports whether the
// item moved.
func (h *eventHeap) down(i int) bool {
	start := i
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i != start
}
