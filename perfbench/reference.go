package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"
)

// A host that is a small share of a machine other tenants also use drifts in
// speed: on a 2-vCPU KVM guest (Intel Xeon) the same 1 MiB FindAll took from
// 80 to 153 ms of thread CPU time within one 30-second run, and a loopback
// round trip moved with the host's steal time. So every timing is taken next
// to a reference timing of fixed code that is not part of the program under
// test, on the same host at the same time, and the end-to-end metrics are the
// program's times relative to the reference's:
//
//   - in process, the reference is Go's regexp package scanning a fixed
//     block of text with fixed patterns, on one goroutine beside FindAll and
//     the simulator, and on nproc goroutines at once beside
//     FindAllParallel;
//   - over HTTP, it is a round trip of the same request body to an echo
//     server: this binary, started as a process of its own, that reads the
//     body and answers a fixed JSON line with the Go standard library.
//
// A change to the program moves its times and leaves the reference's alone;
// a change of the host's speed moves both. The absolute figures are still
// reported, as per-layer metrics of the traced run and on standard error.

// referencePatterns have no literal prefix, so Go's regexp runs its
// automaton over every byte instead of skipping to a prefix.
var referencePatterns = []string{
	`[0-9]{2,4}[a-z]`,
	`[a-z]+ing\b`,
	`[A-Za-z]{3,8}[0-9]`,
	`(ab|cd)[^\n]{0,20}(ef|gh)`,
	`[0-9a-f]{6}x`,
}

const referenceBlockBytes = 64 << 10

// reference is the in-process reference scan: fixed patterns over a fixed
// block of text, the same on every run and every seed.
type reference struct {
	res   []*regexp.Regexp
	block []byte
}

func newReference() *reference {
	r := &reference{}
	for _, p := range referencePatterns {
		r.res = append(r.res, regexp.MustCompile(p))
	}
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789      \n"
	rng := rand.New(rand.NewSource(1))
	r.block = make([]byte, referenceBlockBytes)
	for i := range r.block {
		r.block[i] = letters[rng.Intn(len(letters))]
	}
	return r
}

func (r *reference) scan() int {
	n := 0
	for _, re := range r.res {
		n += len(re.FindAllIndex(r.block, -1))
	}
	return n
}

// nsPerByte times one reference scan on the calling goroutine.
func (r *reference) nsPerByte() float64 {
	start := time.Now()
	r.scan()
	return float64(time.Since(start)) / float64(len(r.block))
}

// parallelNSPerByte times n reference scans run at once, one per
// goroutine, per byte of one block: the host's speed when all n workers of
// FindAllParallel want a CPU.
func (r *reference) parallelNSPerByte(n int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.scan()
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(n*len(r.block))
}

// echoEnv, when set in the environment of this binary, makes it serve the
// reference echo on that address instead of running the benchmark.
const echoEnv = "PERFBENCH_ECHO"

// serveEcho answers every request with a fixed JSON line once it has read
// the whole body.
func serveEcho(addr string) error {
	return http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"matches":[]}`+"\n")
	}))
}

// startEcho starts this binary as the reference echo server and waits
// until it answers.
func startEcho(ctx context.Context, outDir string) (*node, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port for the echo server: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	n, err := startProcess("echo", "http://"+addr, exe, nil, []string{echoEnv + "=" + addr},
		filepath.Join(outDir, "echo.log"))
	if err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	if err := poll(ctx, n, "health", func() bool { return getJSON(ctx, c, n.url+"/healthz", nil) }); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}
