package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bvap"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks runs
// against: every metric it names must be reported.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exactMetrics are counts of work and model outputs that must repeat
// bit-for-bit for one seed.
var exactMetrics = []string{
	"compiler.stes", "compiler.bv_stes",
	"nbva.active_states_per_byte", "nbva.active_bv_states_per_byte",
	"nbva.bv_ops_per_byte", "nbva.quiescent_byte_frac",
	"hwsim.cycles_per_byte", "hwsim.stall_frac",
	"hwsim.match_pj_per_byte", "hwsim.transition_pj_per_byte", "hwsim.bvm_pj_per_byte",
	"hwsim.counter_pj_per_byte", "hwsim.wire_pj_per_byte", "hwsim.io_pj_per_byte",
	"hwsim.leakage_pj_per_byte", "cluster.record_bytes",
}

// TestMain serves the reference echo when a run starts this test binary as
// its echo server, as it starts the benchmark binary outside tests.
func TestMain(m *testing.M) {
	if addr := os.Getenv(echoEnv); addr != "" {
		if err := serveEcho(addr); err != nil {
			os.Exit(2)
		}
		return
	}
	os.Exit(m.Run())
}

type smoke struct {
	t     *testing.T
	bvapd string
	out   string
	spec  benchmarkFile
}

func newSmoke(t *testing.T) *smoke {
	if testing.Short() {
		t.Skip("starts bvapd daemons")
	}
	s := &smoke{t: t, out: t.TempDir()}
	s.bvapd = filepath.Join(s.out, "bvapd")
	build := exec.Command("go", "build", "-o", s.bvapd, "./cmd/bvapd")
	build.Dir = ".."
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build bvapd: %v\n%s", err, msg)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &s.spec); err != nil {
		t.Fatal(err)
	}
	return s
}

// run runs one workload at a tiny size.
func (s *smoke) run(workload string, seed int64, trace, negative bool) *result {
	s.t.Helper()
	var log bytes.Buffer
	res, err := run(context.Background(), config{
		workload: workload, seed: seed, seconds: 0.5, trace: trace, bvapd: s.bvapd,
		root: "..", out: s.out, scale: 1.0 / 64, negative: negative, setups: 1,
	}, &log)
	if err != nil {
		s.t.Fatalf("%s seed %d trace %v: %v\n%s", workload, seed, trace, err, log.String())
	}
	if res.Correct == negative {
		s.t.Fatalf("%s seed %d trace %v negative %v: correct = %v\n%s",
			workload, seed, trace, negative, res.Correct, log.String())
	}
	return res
}

// TestSmoke runs every workload, plain and traced, at a tiny size, and
// checks that each run passes its gates and reports every metric of
// BENCHMARK.json with its unit.
func TestSmoke(t *testing.T) {
	s := newSmoke(t)
	for _, w := range s.spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json names %v", err)
		}
		for _, trace := range []bool{false, true} {
			res := s.run(w.Name, 1, trace, false)
			want := s.spec.EndToEnd
			if trace {
				want = s.spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPatternFile checks that rules read back from their bvapd pattern file
// the way bvapd reads it — each line trimmed, '#' lines skipped — match
// exactly what the rules match.
func TestPatternFile(t *testing.T) {
	rules := append(snortProfile().Generate(snortRules),
		"ab ", " cd", `ef\ `, `gh\\ `, "#ij", "(?i)kl\t", "m  ")
	var read []string
	for _, line := range strings.Split(patternFile(rules), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			read = append(read, line)
		}
	}
	if len(read) != len(rules) {
		t.Fatalf("%d rules read back, %d written", len(read), len(rules))
	}
	want, err := bvap.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bvap.Compile(read)
	if err != nil {
		t.Fatalf("compile rules read back: %v", err)
	}
	in := append(snortCorpus(1, 64<<10, rules), "xab  cd ef gh\\ #ij KL\tm  "...)
	if w, g := want.FindAll(in), got.FindAll(in); !equalMatches(w, g) {
		t.Errorf("rules read back find %d matches, the rules %d", len(g), len(w))
	}
}

// TestNegativeControl checks that wrong expectations fail the run, and that
// the run still prints its result line when a path has no correct sample.
func TestNegativeControl(t *testing.T) {
	s := newSmoke(t)
	res := s.run("snort-bulk", 1, false, true)
	if res.Failed == 0 {
		t.Fatalf("negative control counted no failed op")
	}
	var log bytes.Buffer
	line, err := res.line(&log)
	if err != nil {
		t.Fatalf("result line: %v", err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil || back.Correct {
		t.Fatalf("result line %s: correct %v, %v", line, back.Correct, err)
	}
	if _, ok := back.Metrics["req_rtt_vs_ref"]; ok {
		t.Errorf("req_rtt_vs_ref reported without a correct POST /scan")
	}
}

// TestExactCountersRepeat checks that the exact counters repeat bit-for-bit
// for one seed, and that another seed changes the inputs while every gate
// still passes.
func TestExactCountersRepeat(t *testing.T) {
	s := newSmoke(t)
	for _, w := range []string{"snort-bulk", "logs-serve"} {
		a, b := s.run(w, 7, true, false), s.run(w, 7, true, false)
		for _, name := range exactMetrics {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v, then %v for the same seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		s.run(w, 8, true, false)

		spec, err := workloadByName(w)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := spec.rules("..")
		if err != nil {
			t.Fatal(err)
		}
		gen := func(seed int64) *bench {
			b := &bench{cfg: config{seed: seed, scale: 1.0 / 64}, wl: spec, rules: rules, nproc: 2, clients: 1}
			b.generate()
			return b
		}
		x, y, z := gen(7), gen(7), gen(8)
		if !bytes.Equal(x.inputs[0], y.inputs[0]) || !bytes.Equal(bytes.Join(x.bodies, nil), bytes.Join(y.bodies, nil)) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if bytes.Equal(x.inputs[0], z.inputs[0]) || bytes.Equal(x.streams[0], z.streams[0]) ||
			bytes.Equal(bytes.Join(x.bodies, nil), bytes.Join(z.bodies, nil)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}
