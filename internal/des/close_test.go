package des

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestPanicInProcessRecoversAroundRun(t *testing.T) {
	k := New()
	k.Spawn("bad", func(p *Proc) {
		p.Delay(1)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if k.Now() != 1 {
		t.Fatalf("clock %v at panic, want 1", k.Now())
	}
	if k.Procs() != 0 {
		t.Fatalf("Procs = %d after the body panicked, want 0", k.Procs())
	}
	k.Close()
}

func TestGoexitInProcessLeavesRunCaller(t *testing.T) {
	k := New()
	k.Spawn("quit", func(p *Proc) {
		p.Delay(1)
		runtime.Goexit()
	})
	returned, unwound := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { unwound = true }()
		k.Run()
		returned = true
	}()
	<-done
	if returned || !unwound {
		t.Fatalf("Run returned=%v, caller unwound=%v; want Goexit to end the caller", returned, unwound)
	}
	k.Close()
}

// parkedServer spawns a mailbox Recv loop that never finishes and counts
// its deferred call in *unwound.
func parkedServer(k *Kernel, unwound *int) *Mailbox[int] {
	mb := NewMailbox[int](k, "req")
	k.Spawn("server", func(p *Proc) {
		defer func() { *unwound++ }()
		for {
			mb.Recv(p)
		}
	})
	return mb
}

func TestCloseUnwindsParkedAndUnstartedProcs(t *testing.T) {
	k := New()
	unwound := 0
	mb := parkedServer(k, &unwound)
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(1)
			mb.Send(i)
		}
	})
	k.Run()
	if k.Procs() != 1 {
		t.Fatalf("Procs = %d after Run, want the parked server", k.Procs())
	}
	ran := false
	k.Spawn("never", func(p *Proc) { ran = true })
	if k.Procs() != 2 {
		t.Fatalf("Procs = %d with an unstarted proc, want 2", k.Procs())
	}
	k.Close()
	if k.Procs() != 0 {
		t.Fatalf("Procs = %d after Close, want 0", k.Procs())
	}
	if unwound != 1 {
		t.Fatalf("server deferred call ran %d times, want 1", unwound)
	}
	if ran {
		t.Fatal("Close started a process that never ran")
	}
}

func TestCloseIsIdempotentAndDropsEvents(t *testing.T) {
	k := New()
	fired := 0
	k.After(5, func() { fired++ })
	e := k.After(7, func() { fired++ })
	unwound := 0
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Delay(10)
		fired++
	})
	k.RunUntil(1)
	k.Close()
	k.Close()
	if unwound != 1 || k.Procs() != 0 {
		t.Fatalf("after Close: unwound=%d procs=%d, want 1 and 0", unwound, k.Procs())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", k.Pending())
	}
	k.Cancel(e) // dropped events cancel as no-ops
	k.Run()
	if fired != 0 {
		t.Fatalf("%d events fired after Close, want 0", fired)
	}
}

func TestCloseInsideRunPanics(t *testing.T) {
	k := New()
	var got any
	k.After(1, func() {
		defer func() { got = recover() }()
		k.Close()
	})
	k.Run()
	if got == nil {
		t.Fatal("Close from an event callback did not panic")
	}
}

func TestCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		k := New()
		unwound := 0
		mb := parkedServer(k, &unwound)
		k.Spawn("client", func(p *Proc) {
			p.Delay(1)
			mb.Send(i)
			p.Delay(1)
		})
		k.Spawn("waiter", func(p *Proc) { NewLatch(k).Wait(p) })
		k.Run()
		k.Spawn("unstarted", func(p *Proc) {})
		k.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after closing 200 kernels, baseline %d", n, base)
	}
}

func TestDelayAllocatesAtMostTheEvent(t *testing.T) {
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			k := New()
			k.Spawn("d", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Delay(1)
				}
			})
			k.Run()
		})
	}
	if per := (run(2000) - run(1000)) / 1000; per > 1 {
		t.Fatalf("%.2f allocs per Delay, want at most 1 (the event)", per)
	}
}

func TestMailboxSteadyLoopReusesBacking(t *testing.T) {
	k := New()
	mb := NewMailbox[int](k, "mb")
	if a := testing.AllocsPerRun(1000, func() {
		mb.Send(1)
		mb.Send(2)
		mb.TryRecv()
		mb.TryRecv()
	}); a != 0 {
		t.Fatalf("draining send/recv loop: %v allocs per iteration, want 0", a)
	}
	mb.Send(0) // a standing backlog: the queue never drains
	if a := testing.AllocsPerRun(1000, func() {
		mb.Send(1)
		mb.TryRecv()
	}); a != 0 {
		t.Fatalf("backlogged send/recv loop: %v allocs per iteration, want 0", a)
	}

	// Between processes: a ping-pong never holds more than one message.
	ping := NewMailbox[int](k, "ping")
	k.Spawn("echo", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			ping.Send(ping.Recv(p))
			p.Delay(1)
		}
	})
	ping.Send(0)
	k.Run()
	if c := cap(ping.msgs.items); c > 1 {
		t.Fatalf("ping-pong mailbox backing grew to %d, want 1", c)
	}
}

func TestQueueKeepsFIFOAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			q.push(next)
			ref = append(ref, next)
			next++
			continue
		}
		v, ok := q.pop()
		if !ok || v != ref[0] {
			t.Fatalf("step %d: pop = (%d,%v), want %d", step, v, ok, ref[0])
		}
		ref = ref[1:]
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
		}
	}
	for _, want := range ref {
		if v, _ := q.pop(); v != want {
			t.Fatalf("drain: pop %d, want %d", v, want)
		}
	}
	if _, ok := q.pop(); ok || q.len() != 0 {
		t.Fatal("queue not empty after drain")
	}
}
