package bvap

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"bvap/internal/datasets"
	"bvap/internal/faults"
	"bvap/internal/hwsim"
	"bvap/internal/profile"
	"bvap/internal/workload"
)

var updateSimGolden = flag.Bool("update-sim-golden", false,
	"rewrite testdata/hwsim_stats_golden.txt (only from a commit whose simulator accounting is trusted)")

const simGoldenPath = "testdata/hwsim_stats_golden.txt"

// TestSimulatorStatsGolden pins the BVAP simulator's accounting bit for
// bit: on 40 rules of five dataset profiles over a seeded 32 KiB corpus,
// every Stats counter, every energy field (as the hex of its float bits),
// the fault counters and resilience report of a seeded fault campaign, and
// the activity profiler's per-machine activity steps and stage energies
// must equal the capture. The rows cover both modes with a profiler, the
// design ablations, custom sizing, a Reset every 1 KiB and a fault plan
// (BV bit flips and STE latch upsets under parity, so detected windows
// are rolled back and replayed) on both modes. Host-side optimisations of
// the simulator must leave every figure here unchanged.
func TestSimulatorStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 45 runs of 32 KiB")
	}
	var got bytes.Buffer
	var replays uint64
	for _, name := range []string{"Snort", "Suricata", "Prosite", "SpamAssassin", "ClamAV"} {
		p, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rules := p.Generate(40)
		eng, err := Compile(rules)
		if err != nil {
			t.Fatal(err)
		}
		input := workload.Corpus(7, 32<<10, p.Alphabet, rules, p.MatchRate)
		for _, row := range simGoldenRows(input, &replays) {
			sim, err := eng.NewSimulator(row.arch)
			if err != nil {
				t.Fatal(err)
			}
			var prof *profile.Profiler
			if row.profile {
				prof = sim.Profile(profile.Options{})
			}
			fmt.Fprintf(&got, "%s %s\n", name, row.name)
			row.run(t, sim, &got)
			sim.Result()
			writeSimStats(&got, sim)
			if prof != nil {
				writeSimProfile(&got, prof)
			}
		}
	}
	if replays == 0 {
		t.Fatal("no fault row rolled a window back; the replay path is untested")
	}
	if *updateSimGolden {
		if err := os.WriteFile(simGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("simulator accounting drifted from %s at line %d:\n got: %s\nwant: %s",
					simGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("simulator accounting drifted from %s: %d lines, want %d", simGoldenPath, len(gl), len(wl))
	}
}

type simGoldenRow struct {
	name    string
	arch    Architecture
	profile bool
	// run drives the simulator; it may write row-specific figures to w.
	run func(t *testing.T, sim *Simulator, w *bytes.Buffer)
}

func simGoldenRows(input []byte, replays *uint64) []simGoldenRow {
	plain := func(t *testing.T, sim *Simulator, w *bytes.Buffer) { sim.Run(input) }
	variant := func(edit func(*hwsim.Variant)) func(*testing.T, *Simulator, *bytes.Buffer) {
		return func(t *testing.T, sim *Simulator, w *bytes.Buffer) {
			v := hwsim.DefaultVariant()
			edit(&v)
			sim.bvapSys.SetVariant(v)
			sim.Run(input)
		}
	}
	// A parity plan detects every bit flip, so the harness rolls windows
	// back and replays them; STE upsets are silent and force states of
	// idle machines active.
	faulty := func(t *testing.T, sim *Simulator, w *bytes.Buffer) {
		plan := &FaultPlan{Seed: 11, BitFlipRate: 1e-3, STECorruptRate: 5e-5, Parity: true}
		if err := sim.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		rep, err := sim.RunResilient(context.Background(), input, ResilienceConfig{Window: 512, MaxRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Faults.Injected[faults.SiteSTEActive] == 0 {
			t.Fatalf("fault plan upset no STE latch: %+v", rep)
		}
		*replays += rep.Retries
		fmt.Fprintf(w, " resilience windows=%d retries=%d fallbacks=%d mismatches=%d\n",
			rep.Windows, rep.Retries, rep.Fallbacks, rep.Mismatches)
	}
	return []simGoldenRow{
		{name: "BVAP profiled", arch: ArchBVAP, profile: true, run: plain},
		{name: "BVAP-S profiled", arch: ArchBVAPStreaming, profile: true, run: plain},
		{name: "BVAP event-driven=off", arch: ArchBVAP, run: variant(func(v *hwsim.Variant) { v.EventDriven = false })},
		{name: "BVAP naive-pe", arch: ArchBVAP, run: variant(func(v *hwsim.Variant) { v.NaivePE = true })},
		{name: "BVAP virtual-sizing=off", arch: ArchBVAP, run: variant(func(v *hwsim.Variant) { v.VirtualSizing = false })},
		{name: "BVAP custom-sizing", arch: ArchBVAP, run: func(t *testing.T, sim *Simulator, w *bytes.Buffer) {
			sim.bvapSys.SetCustomSizing()
			sim.Run(input)
		}},
		// Reset leaves each machine's last BV count owed, and BVAP-S
		// charges that reset on the next symbol.
		{name: "BVAP-S reset/1KiB profiled", arch: ArchBVAPStreaming, profile: true, run: func(t *testing.T, sim *Simulator, w *bytes.Buffer) {
			for off := 0; off < len(input); off += 1 << 10 {
				sim.bvapSys.Reset()
				sim.Run(input[off : off+1<<10])
			}
		}},
		{name: "BVAP faults", arch: ArchBVAP, run: faulty},
		{name: "BVAP-S faults", arch: ArchBVAPStreaming, run: faulty},
	}
}

func fbits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// writeSimStats writes every Stats field (floats as their bit patterns)
// and the fault counters.
func writeSimStats(w *bytes.Buffer, sim *Simulator) {
	v := reflect.ValueOf(*sim.Stats())
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(w, " %s=%s", v.Type().Field(i).Name, fbits(f.Float()))
		} else {
			fmt.Fprintf(w, " %s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	fmt.Fprintf(w, "\n faults=%+v\n", sim.FaultStats())
}

// writeSimProfile writes the profiler's totals and, per machine, its
// activity steps and the nonzero per-stage energies attributed to it.
func writeSimProfile(w *bytes.Buffer, p *profile.Profiler) {
	fmt.Fprintf(w, " profile symbols=%d cycles=%d matches=%d", p.Symbols(), p.Cycles(), p.Matches())
	for c := hwsim.StallCause(0); c < hwsim.NumStallCauses; c++ {
		fmt.Fprintf(w, " stall.%s=%d", c, p.StallTotal(c))
	}
	for s := hwsim.Stage(0); s < hwsim.NumStages; s++ {
		fmt.Fprintf(w, " %s=%s", s, fbits(p.StageEnergyPJ(s)))
	}
	w.WriteString("\n")
	for m := range p.Patterns() {
		fmt.Fprintf(w, " m%d act=%d", m, p.MachineActivitySteps(m))
		for s := hwsim.Stage(0); s < hwsim.NumStages; s++ {
			if e := p.MachineStageEnergyPJ(m, s); e != 0 {
				fmt.Fprintf(w, " %s=%s", s, fbits(e))
			}
		}
		w.WriteString("\n")
	}
}
