package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup tracks every child process and scratch directory the harness
// creates, so that a failure or a signal leaves neither behind.
var cleanup = struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
	dirs  map[string]struct{}
}{procs: map[*daemon]struct{}{}, dirs: map[string]struct{}{}}

// cleanupAll reaps every tracked child and removes every scratch directory.
func cleanupAll() {
	cleanup.mu.Lock()
	procs := make([]*daemon, 0, len(cleanup.procs))
	for d := range cleanup.procs {
		procs = append(procs, d)
	}
	dirs := make([]string, 0, len(cleanup.dirs))
	for d := range cleanup.dirs {
		dirs = append(dirs, d)
	}
	cleanup.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, d := range dirs {
		removeScratch(d)
	}
}

// cleanupOnSignal makes an interrupted run clean up before it exits.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// scratchDir creates a tracked directory under the output directory.
func scratchDir(outDir, pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, pattern)
	if err != nil {
		return "", err
	}
	cleanup.mu.Lock()
	cleanup.dirs[dir] = struct{}{}
	cleanup.mu.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	os.RemoveAll(dir)
	cleanup.mu.Lock()
	delete(cleanup.dirs, dir)
	cleanup.mu.Unlock()
}

// buildDaemon compiles cmd/d2cqd into dir. It must run from the bench
// module's directory (as `go run .` does); run.sh builds the daemon itself
// and passes -d2cqd instead.
func buildDaemon(dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "d2cqd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "d2cq/cmd/d2cqd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building d2cqd: %w", err)
	}
	return bin, time.Since(start), nil
}

// daemon is one running d2cqd child.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	done     chan struct{} // closed once the child has been reaped
}

// startDaemon launches d2cqd on free ports, reads the addresses it prints and
// waits until /stats answers. A daemon that does not come up is reaped.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-listen-wire", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	cleanup.mu.Lock()
	cleanup.procs[d] = struct{}{}
	cleanup.mu.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.done)
		var got [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "d2cqd listening on http://"); ok {
				got[0] = a
			}
			if a, ok := strings.CutPrefix(line, "d2cqd wire listening on "); ok {
				got[1] = a
				addrs <- got
			}
		}
		cmd.Wait()
	}()
	// Recovery of a large log happens before the listeners open, so the
	// wait is generous; a daemon that exits instead fails at once.
	select {
	case a := <-addrs:
		d.httpAddr, d.wireAddr = a[0], a[1]
	case <-d.done:
		d.forget()
		return nil, fmt.Errorf("d2cqd exited during start-up")
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("d2cqd printed no listen addresses within 60s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + d.httpAddr + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("d2cqd /stats not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) forget() {
	cleanup.mu.Lock()
	delete(cleanup.procs, d)
	cleanup.mu.Unlock()
}

// stop shuts the daemon down cleanly (SIGTERM), falling back to kill.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		d.forget()
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// kill is kill -9 plus reaping: the crash the recovery check recovers from.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.forget()
}

// procUsage is a child's accumulated CPU time and peak resident set, read
// from /proc.
type procUsage struct {
	cpu   time.Duration
	rssMB float64
}

func (d *daemon) usage() (procUsage, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name: utime and stime are the
	// 14th and 15th of the line, in clock ticks (USER_HZ is 100 on Linux).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	u := procUsage{cpu: time.Duration(utime+stime) * 10 * time.Millisecond}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			u.rssMB = kb / 1024
		}
	}
	return u, nil
}
