package bvap

import (
	"testing"

	"bvap/internal/hwsim"
	"bvap/internal/profile"
	"bvap/internal/telemetry"
)

// BenchmarkTelemetryOverhead pins the zero-overhead-when-disabled contract:
// the uninstrumented hot paths (Stream.Step with no registry, the simulator
// Step with a nil sink) must allocate nothing and stay within a few percent
// of the seed, while the instrumented variants quantify what an attached
// registry costs. Numbers are recorded in EXPERIMENTS.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	patterns := []string{"ab{50}c", "x.{10}y", "a{3}b", "k{200}m"}
	d, err := DatasetByName("Snort")
	if err != nil {
		b.Fatal(err)
	}
	input := d.Input(4096, patterns)
	engine, err := Compile(patterns)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("EngineStep/nosink", func(b *testing.B) {
		s := engine.NewStream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(input[i%len(input)])
		}
	})
	b.Run("EngineStep/registry", func(b *testing.B) {
		s := engine.NewStream()
		s.Instrument(telemetry.NewRegistry())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(input[i%len(input)])
		}
	})

	newSys := func(b *testing.B) *hwsim.BVAPSystem {
		sim, err := engine.NewSimulator(ArchBVAP)
		if err != nil {
			b.Fatal(err)
		}
		return sim.bvapSys
	}
	b.Run("BVAPSystemStep/nosink", func(b *testing.B) {
		sys := newSys(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Step(input[i%len(input)])
		}
	})
	b.Run("BVAPSystemStep/sink", func(b *testing.B) {
		sys := newSys(b)
		sys.SetSink(hwsim.NewTelemetrySink(telemetry.NewRegistry()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Step(input[i%len(input)])
		}
	})
	b.Run("BVAPSystemStep/profiler", func(b *testing.B) {
		sim, err := engine.NewSimulator(ArchBVAP)
		if err != nil {
			b.Fatal(err)
		}
		sim.Profile(profile.Options{})
		sys := sim.bvapSys
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Step(input[i%len(input)])
		}
	})
	b.Run("BVAPSystemStep/profiler+sink", func(b *testing.B) {
		sim, err := engine.NewSimulator(ArchBVAP)
		if err != nil {
			b.Fatal(err)
		}
		p := profile.New(engine.res.Config, profile.Options{})
		sim.SetSink(hwsim.FanOut(p, hwsim.NewTelemetrySink(telemetry.NewRegistry())))
		sys := sim.bvapSys
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Step(input[i%len(input)])
		}
	})
}

// TestUninstrumentedStepAllocationFree enforces the acceptance criterion of
// the profiler work: with no profiler (or any sink) attached, the hwsim hot
// path allocates zero bytes per symbol. The provenance emission sites added
// for the profiler must stay behind their nil checks. A warm-up run lets
// scratch buffers (active lists, report FIFOs) reach steady state first.
func TestUninstrumentedStepAllocationFree(t *testing.T) {
	patterns := []string{"ab{50}c", "x.{10}y", "a{3}b", "k{200}m"}
	d, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	input := d.Input(4096, patterns)

	engine, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := engine.NewSimulator(ArchBVAP)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.bvapSys
	sys.Run(input) // warm up scratch buffers
	if avg := testing.AllocsPerRun(10, func() {
		for _, c := range input[:512] {
			sys.Step(c)
		}
	}); avg != 0 {
		t.Fatalf("uninstrumented BVAP Step allocated %.2f times per 512 symbols, want 0", avg)
	}

	base, err := NewBaselineSimulator(ArchCAMA, patterns)
	if err != nil {
		t.Fatal(err)
	}
	bsys := base.baseSys
	bsys.Run(input)
	if avg := testing.AllocsPerRun(10, func() {
		for _, c := range input[:512] {
			bsys.Step(c)
		}
	}); avg != 0 {
		t.Fatalf("uninstrumented baseline Step allocated %.2f times per 512 symbols, want 0", avg)
	}
}

// TestUninstrumentedStreamStepAllocationFree is the software engine's
// counterpart of the hwsim pin above: after a warm-up input, an
// uninstrumented Stream.Step (runner dispatch included) allocates nothing.
func TestUninstrumentedStreamStepAllocationFree(t *testing.T) {
	d, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	patterns := append(d.Patterns(20), "^ab{3}c", "x.{10}y")
	input := d.Input(4096, patterns)
	engine, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewStream()
	for _, c := range input { // warm up runner scratch buffers
		s.Step(c)
	}
	s.Reset()
	if avg := testing.AllocsPerRun(10, func() {
		for _, c := range input[:512] {
			s.Step(c)
		}
	}); avg != 0 {
		t.Fatalf("uninstrumented Stream.Step allocated %.2f times per 512 symbols, want 0", avg)
	}
}
