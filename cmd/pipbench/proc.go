package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildPatchitpy builds ./cmd/patchitpy of the repository at root into
// dir and returns the binary's path. The build is not timed.
func buildPatchitpy(root, dir string) (string, error) {
	bin := filepath.Join(dir, "patchitpy")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/patchitpy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build patchitpy: %v\n%s", err, out)
	}
	return bin, nil
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory holding cmd/patchitpy.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "patchitpy", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (cmd/patchitpy) at or above the working directory")
		}
		dir = parent
	}
}

// dieWithParent makes a child process receive SIGKILL if pipbench dies
// first, so an interrupted run leaves no server behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// serverArgs are the flags every serve workload starts the server with.
// The 8 MiB engine caches reach eviction within the warm-up, so timing
// starts at steady-state occupancy.
var serverArgs = []string{"serve", "-http", "127.0.0.1:0", "-cache", "8"}

// server is a running `patchitpy serve -http` process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained chan struct{}
}

// startServer execs the binary and returns once /v1/ping answers 200,
// with the time from exec to that answer. The server logs every request
// to stderr, so stderr is drained for the process's whole life.
func startServer(bin string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, serverArgs...)
	cmd.SysProcAttr = dieWithParent()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(stderr)
		for {
			line, err := br.ReadString('\n')
			if a, ok := strings.CutPrefix(strings.TrimSpace(line), "patchitpy: serving HTTP on "); ok {
				addr <- a
				break
			}
			if err != nil {
				close(addr)
				return
			}
		}
		io.Copy(io.Discard, br)
	}()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, 0, errors.New("server exited before listening")
		}
		s.base = "http://" + a
	case <-deadline.C:
		s.stop()
		return nil, 0, errors.New("server did not report its address within 10s")
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(s.base + "/v1/ping")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-deadline.C:
			s.stop()
			return nil, 0, errors.New("server did not answer /v1/ping within 10s")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	err := s.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		return nil // ended by the signal
	}
	return err
}

// procCPU is the process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// procPeakRSS is the process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cliRun is one finished CLI invocation.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
	exit   int
	stdout []byte
	stderr []byte
}

// rssPoll is how often runCLI samples the CLI's peak RSS.
const rssPoll = 5 * time.Millisecond

// runCLI runs the binary with args and collects its wall time, CPU time,
// peak RSS and output.
//
// The peak RSS is sampled from /proc while the CLI runs, not taken from
// rusage: a child starts on the parent's address space until it execs,
// and Linux folds that space's high-water mark into the child's
// ru_maxrss, so rusage would report pipbench's own peak.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var r cliRun
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	exited := make(chan struct{})
	sampled := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			// A read fails once the process has exited; its last
			// successful one is its peak.
			if rss, err := procPeakRSS(cmd.Process.Pid); err == nil {
				peak = max(peak, rss)
			}
			select {
			case <-exited:
				sampled <- peak
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	r.wall = time.Since(t0)
	close(exited)
	r.maxRSS = <-sampled
	r.stdout, r.stderr = stdout.Bytes(), stderr.Bytes()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return r, err
	}
	r.exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r, nil
}
