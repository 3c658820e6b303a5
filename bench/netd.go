package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// netd child lifecycle: build the real daemon, start it on a free
// loopback port, wait for /healthz, read its counters, stop it with
// SIGTERM and insist on a clean exit. Its stderr is captured; a panic
// line fails the run.

// buildNetd compiles cmd/netd into dir and returns the binary's path.
// The go command runs in the benchmark's module (bench/), which sees the
// repository's packages through its replace directive.
func buildNetd(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "netd")
	cmd := exec.Command("go", "build", "-o", bin, "eventnet/cmd/netd")
	cmd.Dir = benchDir()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building netd: %v\n%s", err, out)
	}
	return bin, nil
}

// lockedBuffer is a goroutine-safe, size-capped stderr sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

const stderrCap = 1 << 20

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := stderrCap - b.buf.Len(); room > 0 {
		b.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// netdChild is one running daemon.
type netdChild struct {
	cmd    *exec.Cmd
	url    string
	stderr *lockedBuffer
	exited chan error
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

// startNetd launches the daemon with the given flags plus a free
// loopback -addr, on one core like everything here (onecore.go), and
// returns once /healthz answers 200.
func startNetd(bin string, args ...string) (*netdChild, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	n := &netdChild{url: "http://" + addr, stderr: &lockedBuffer{}, exited: make(chan error, 1)}
	n.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	n.cmd.Stderr = n.stderr
	n.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { n.exited <- n.cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-n.exited:
			return nil, fmt.Errorf("netd exited during start-up: %v\n%s", err, n.stderr)
		default:
		}
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, fmt.Errorf("netd did not become healthy on %s\n%s", addr, n.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (n *netdChild) pid() int { return n.cmd.Process.Pid }

// proc reads the child's peak RSS and CPU time.
func (n *netdChild) proc() (procStat, error) { return readProc(n.pid()) }

// kill is the unconditional stop of an error path.
func (n *netdChild) kill() {
	n.cmd.Process.Kill()
	<-n.exited
}

// stop sends SIGTERM and waits for a clean exit: status 0 within the
// daemon's own shutdown timeout and no panic on stderr.
func (n *netdChild) stop() error {
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling netd: %w", err)
	}
	select {
	case err := <-n.exited:
		if err != nil {
			return fmt.Errorf("netd exit: %v\n%s", err, n.stderr)
		}
	case <-time.After(15 * time.Second):
		n.kill()
		return fmt.Errorf("netd ignored SIGTERM for 15s\n%s", n.stderr)
	}
	return n.panicked()
}

// panicked reports a panic or runtime fatal error seen on stderr.
func (n *netdChild) panicked() error {
	s := n.stderr.String()
	for _, marker := range []string{"panic:", "fatal error:"} {
		if strings.Contains(s, marker) {
			return fmt.Errorf("netd stderr shows %q\n%s", marker, s)
		}
	}
	return nil
}

// parseMetrics reads the Prometheus text exposition: "name value" lines,
// skipping comments and labelled samples (histogram buckets).
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
