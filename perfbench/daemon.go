package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"bvap/internal/cluster"
)

// node is one process the benchmark started: a bvapd node of the fleet,
// or the reference echo server.
type node struct {
	id   string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	log  *os.File
}

// fleet is the two-node bvapd cluster every run starts: node a serves
// POST /scan, and both hold sessions and replicate checkpoints (R=2).
type fleet struct {
	a, b   *node
	client *http.Client
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

func startNode(bin, outDir, id string, rules []string, join string) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port for %s: %w", id, err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	url := "http://" + addr
	args := []string{
		"-listen", addr, "-node-id", id, "-advertise", url,
		"-replicas", "2", "-log-level", "warn", "-drain-timeout", "2s",
	}
	if join != "" {
		args = append(args, "-join", join)
	}
	return startProcess(id, url, bin, append(args, rules...), nil, filepath.Join(outDir, "bvapd-"+id+".log"))
}

// startProcess starts bin with args, and env added to this process's
// environment, as the process named id serving at url. Its output goes to
// logPath; it is reaped as soon as it exits.
func startProcess(id, url, bin string, args, env []string, logPath string) (*node, error) {
	n := &node{id: id, url: url, done: make(chan struct{})}
	var err error
	n.log, err = os.Create(logPath)
	if err != nil {
		return nil, err
	}
	n.cmd = exec.Command(bin, args...)
	n.cmd.Stdout, n.cmd.Stderr = n.log, n.log
	if env != nil {
		n.cmd.Env = append(os.Environ(), env...)
	}
	if err := n.cmd.Start(); err != nil {
		n.log.Close()
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	go func() {
		_ = n.cmd.Wait() // the exit status of a stopped process carries nothing
		n.log.Close()
		close(n.done)
	}()
	return n, nil
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited in time. It returns once the process is reaped.
func (n *node) stop() {
	if n == nil {
		return
	}
	select {
	case <-n.done:
		return
	default:
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-n.done:
	case <-time.After(5 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// getJSON fetches url into v and reports whether it answered 200.
func getJSON(ctx context.Context, c *http.Client, url string, v any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return v == nil || json.NewDecoder(resp.Body).Decode(v) == nil
}

// poll calls ok every millisecond until it holds, the node exits, or 30 s
// pass.
func poll(ctx context.Context, n *node, what string, ok func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !ok() {
		if n.exited() {
			return fmt.Errorf("%s exited before %s; see %s", n.id, what, n.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out waiting for %s", n.id, what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// converged reports whether n's ring view lists both nodes alive.
func (f *fleet) converged(ctx context.Context, n *node) bool {
	var view cluster.RingView
	if !getJSON(ctx, f.client, n.url+"/cluster/ring", &view) {
		return false
	}
	alive := 0
	for _, m := range view.Members {
		if (m.URL == f.a.url || m.URL == f.b.url) && m.State == cluster.StateAlive {
			alive++
		}
	}
	return alive == 2
}

// startFleet starts node a, waits until it is healthy, starts node b
// joined to it, and waits until b is healthy and both ring views hold both
// nodes alive. Node b starts only after a answers, so its first join
// succeeds instead of backing off.
func startFleet(ctx context.Context, bin, outDir string, rules []string) (*fleet, error) {
	f := &fleet{client: &http.Client{Timeout: 10 * time.Second}}
	var err error
	healthy := func(n *node) func() bool {
		return func() bool { return getJSON(ctx, f.client, n.url+"/healthz", nil) }
	}
	if f.a, err = startNode(bin, outDir, "a", rules, ""); err != nil {
		return nil, err
	}
	if err = poll(ctx, f.a, "health", healthy(f.a)); err != nil {
		f.stop()
		return nil, err
	}
	if f.b, err = startNode(bin, outDir, "b", rules, f.a.url); err != nil {
		f.stop()
		return nil, err
	}
	for _, step := range []struct {
		n    *node
		what string
		ok   func() bool
	}{
		{f.b, "health", healthy(f.b)},
		{f.a, "ring convergence", func() bool { return f.converged(ctx, f.a) }},
		{f.b, "ring convergence", func() bool { return f.converged(ctx, f.b) }},
	} {
		if err = poll(ctx, step.n, step.what, step.ok); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop stops both nodes, b first, and waits until both are reaped.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.b.stop()
	f.a.stop()
	f.client.CloseIdleConnections()
}

// owner asks node a which node owns key on the ring.
func (f *fleet) owner(ctx context.Context, key string) (*node, error) {
	var view cluster.RingView
	if !getJSON(ctx, f.client, f.a.url+"/cluster/ring?key="+key, &view) {
		return nil, errors.New("ring lookup failed")
	}
	switch view.Owner {
	case f.a.url:
		return f.a, nil
	case f.b.url:
		return f.b, nil
	}
	return nil, fmt.Errorf("key %s owned by unknown node %q", key, view.Owner)
}

// keyOwnedBy returns the first key prefix-i, i = 0, 1, ..., that the ring
// places on want.
func (f *fleet) keyOwnedBy(ctx context.Context, prefix string, want *node) (string, error) {
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		n, err := f.owner(ctx, key)
		if err != nil {
			return "", err
		}
		if n == want {
			return key, nil
		}
	}
	return "", fmt.Errorf("no key with prefix %s lands on %s", prefix, want.id)
}

func (f *fleet) peerOf(n *node) *node {
	if n == f.a {
		return f.b
	}
	return f.a
}
