//go:build go1.23

package des

import "iter"

// Spawn creates a process executing body. The body starts at the current
// virtual time, after already-queued events at that time.
//
// A panic (or runtime.Goexit) in body propagates out of the Run call that
// resumed the process, in the caller's goroutine.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, slot: len(k.live)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			k.retire(p)
			if k.closing {
				if r := recover(); r != nil && r != errClosed {
					panic(r)
				}
			}
		}()
		body(p)
	})
	k.live = append(k.live, p)
	k.wakeAt(k.now, p)
	return p
}
