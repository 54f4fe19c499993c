// Package des implements a deterministic discrete-event simulation
// kernel used to emulate the coupled heterogeneous platforms of
// Figueira & Berman (HPDC'96).
//
// The kernel advances a virtual clock over a heap of cancelable events.
// Simulated activities are written as ordinary imperative Go functions
// running in "processes" (coroutines that the kernel resumes one at a
// time, so execution is sequential and fully deterministic). Resources
// such as processor-sharing CPUs and FCFS links are built on top of the
// kernel's event primitives in sibling packages.
//
// Determinism: exactly one context (the kernel or a single process) runs
// at any instant; control transfers by coroutine switches (iter.Pull: a
// process parks by yielding, the kernel resumes it by pulling);
// simultaneous events fire in schedule order (a monotonically increasing
// sequence number breaks time ties).
//
// Panics: a panic or runtime.Goexit in a process body propagates out of
// Kernel.Run in the caller's goroutine, where it can be recovered.
//
// Lifetime: a process parked when Run returns (a server looping on a
// mailbox, say) stays suspended, and keeps the kernel and everything it
// references alive, until Kernel.Close stops it. Close unwinds each
// parked process from its park point, running its deferred calls,
// discards processes that never started and drops pending events. It is
// idempotent and must be called from outside Run.
//
// The coroutines need Go 1.23 or newer; there is no fallback for older
// toolchains.
package des
