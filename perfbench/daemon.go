package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running cmd/reprod process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args on a free loopback port at the
// given GOMAXPROCS, logging to logPath, and returns once GET /healthz
// answers 200, with the time that took.
func startDaemon(bin string, args []string, gomaxprocs int, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-expvar", ""}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read through exited
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := start.Add(120 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("reprod exited during start-up (log: %s)", logPath)
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("reprod not healthy after 120s (log: %s)", logPath)
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop terminates the daemon and waits for it to exit: SIGTERM first
// (its drain deadline is short here), SIGKILL after 15 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // same: it may have exited meanwhile
		<-d.exited
	}
}

// vmHWM reads a process's peak resident set (VmHWM) in MB; pid 0 means
// this process.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// waitIdle polls GET /metrics until no stream is in flight, and
// returns when that was first seen.
func waitIdle(ctx context.Context, c *client, every time.Duration) (time.Time, error) {
	for {
		var m metricsDoc
		if err := c.getJSON(ctx, "/metrics", &m); err != nil {
			return time.Time{}, err
		}
		if m.Serve.StreamsInflight == 0 {
			return time.Now(), nil
		}
		select {
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		case <-time.After(every):
		}
	}
}
