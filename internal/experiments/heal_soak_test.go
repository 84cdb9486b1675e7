package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleClusterGoroutines waits up to 5s for the goroutine count to fall
// back to the pre-soak baseline — HTTP servers, chaos goroutines and stream
// drivers all wind down asynchronously.
func settleClusterGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestHealSoak is the fleet acceptance gate: gossip membership, a standby
// joining mid-stream (forcing a session hand-off), a node killed
// mid-stream WITHOUT driver-side migration (forcing adoption from
// replicated checkpoints), two rolling coordinated publishes and a tenant
// quota phase — and every stream's delivered log byte-identical to the
// origin engine's uninterrupted reference, with survivors converged
// within the probe-interval bound, every survivor on the published
// generation, and nothing leaked. The 2-node row shrinks the initial
// fleet to one survivor of the original pair.
func TestHealSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("heal soak is a wall-clock experiment")
	}
	for _, tc := range []struct {
		name string
		opt  HealSoakOptions
	}{
		{"3-node", HealSoakOptions{Nodes: 3, Streams: 6, Sample: 8, InputLen: 32 << 10, Kills: 1, Joins: 1, Replicas: 2}},
		{"2-node", HealSoakOptions{Nodes: 2, Streams: 3, Sample: 6, InputLen: 16 << 10, Kills: 1, Joins: 1, Replicas: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			res, rep, err := HealSoak(tc.opt)
			if err != nil {
				t.Fatalf("HealSoak: %v", err)
			}
			if !res.ReportsExact || res.StreamReports != res.ReferenceReports {
				t.Errorf("reports %d vs reference %d (exact=%v); exactly-once broken",
					res.StreamReports, res.ReferenceReports, res.ReportsExact)
			}
			if res.Handoffs == 0 {
				t.Error("join moved ownership but no session was handed off")
			}
			if res.Recoveries == 0 {
				t.Error("a node was killed but no driver ran sync recovery")
			}
			if res.ConvergeMillis > res.BoundMillis {
				t.Errorf("membership converged in %dms, bound %dms", res.ConvergeMillis, res.BoundMillis)
			}
			if res.FinalEpoch < 2 {
				t.Errorf("final epoch = %d; membership changes did not advance it", res.FinalEpoch)
			}
			if res.PublishesOK != 2 {
				t.Errorf("publishes ok = %d, want 2", res.PublishesOK)
			}
			if res.FinalGeneration < 2 {
				t.Errorf("lowest survivor generation = %d; coordinated publishes did not land", res.FinalGeneration)
			}
			if res.QuotaRefused == 0 {
				t.Error("metered tenant was never refused")
			}
			if res.OpenRefused != 0 {
				t.Errorf("unmetered tenant refused %d times", res.OpenRefused)
			}
			if res.SessionsLeft != 0 || res.StreamsOut != 0 {
				t.Errorf("leaked: %d sessions, %d pooled streams", res.SessionsLeft, res.StreamsOut)
			}

			if len(rep.Cells) != 3 {
				t.Fatalf("%d bench cells, want 3", len(rep.Cells))
			}
			if rep.Cells[0].Arch != "heal-correctness" || rep.Cells[0].Matches != res.StreamReports {
				t.Errorf("correctness cell mismatch: %+v", rep.Cells[0])
			}
			if rep.Cells[1].Stalls["handoffs"] != res.Handoffs {
				t.Errorf("membership cell mismatch: %+v", rep.Cells[1])
			}
			if rep.Cells[2].Arch != "heal-control" || rep.Cells[2].Stalls["quota_refused"] != res.QuotaRefused {
				t.Errorf("control cell mismatch: %+v", rep.Cells[2])
			}

			var buf bytes.Buffer
			RenderHealSoak(&buf, res)
			for _, line := range []string{"exactly-once:", "control:", "quotas:"} {
				if !strings.Contains(buf.String(), line) {
					t.Errorf("RenderHealSoak lacks the %q line", line)
				}
			}
			t.Logf("\n%s", buf.String())

			if after := settleClusterGoroutines(before); after > before {
				t.Errorf("goroutine leak: %d before, %d after the heal soak", before, after)
			}
		})
	}
}

// TestHealSoakInjectLoss pins the negative control: with R=1, killing a
// stream's owner destroys the only durable checkpoint record, and the
// soak MUST fail with a checkpoint-loss report rather than silently
// delivering a gapped log.
func TestHealSoakInjectLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("heal soak is a wall-clock experiment")
	}
	_, _, err := HealSoak(HealSoakOptions{
		Nodes:      3,
		Streams:    3,
		Sample:     6,
		InputLen:   16 << 10,
		Kills:      1,
		Joins:      1,
		InjectLoss: true,
	})
	if err == nil {
		t.Fatal("inject-loss soak succeeded; checkpoint loss went undetected")
	}
	if !strings.Contains(err.Error(), "checkpoint lost") {
		t.Fatalf("inject-loss soak failed for the wrong reason: %v", err)
	}
}
