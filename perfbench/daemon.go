package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one program under test running as a child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	done   chan struct{} // closed once cmd.Wait returns
	stderr *addrWatcher
}

var listenLine = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

// addrWatcher is the child's stderr: it keeps the output's head for
// error reports and hands over the first listen address it sees.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1: the listen address, sent once
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 64<<10 {
		w.buf.Write(p)
	}
	if !w.sent {
		if m := listenLine.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}

// startDaemon spawns bin and returns once GET /readyz answers 200, with
// the time that took. The only flag passed is the listen address, so
// the daemon runs with its default configuration.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", "127.0.0.1:0"),
		done:   make(chan struct{}),
		stderr: &addrWatcher{addr: make(chan string, 1)},
	}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.done)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%s: %w (stderr: %s)", filepath.Base(bin), err, d.stderr)
	}
	select {
	case d.addr = <-d.stderr.addr:
	case <-d.done:
		return fail(errors.New("exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("no listen address within 30s"))
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			drainBody(resp)
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("not ready within 30s"))
		}
		select {
		case <-d.done:
			return fail(errors.New("exited before ready"))
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for a graceful drain, and kills the process
// if it has not exited within 15 s. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu is the daemon's total on-CPU time so far, summed over its threads.
func (d *daemon) cpu() (time.Duration, error) { return processTreeCPU(d.cmd.Process.Pid) }

// peakRSS is the daemon's resident-set high-water mark (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// processTreeCPU sums the scheduler's on-CPU nanoseconds over every
// thread of pid (/proc/PID/task/*/schedstat), which resolves far finer
// than the clock-tick utime/stime of /proc/PID/stat.
func processTreeCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total int64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", p, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drainBody empties and closes a response body so its connection is
// reused.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
