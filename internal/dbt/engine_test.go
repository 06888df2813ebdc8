package dbt

import (
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// loopProgram is a simple hot loop: the DBT must translate it and offload
// subsequent iterations.
const loopProgram = `
_start:
	li   s0, 0          # sum
	li   s1, 0          # i
	li   s2, 200        # iterations
loop:
	slli t0, s1, 1
	xor  t1, s1, s0
	add  t2, t0, t1
	add  s0, s0, t2
	addi s1, s1, 1
	blt  s1, s2, loop
	mv   a0, s0
	ecall
`

func loopCore(t *testing.T) *gpp.Core {
	t.Helper()
	p, err := isa.Assemble(loopProgram, isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	return gpp.New(p)
}

func newTestEngine(t *testing.T, a alloc.Allocator) *Engine {
	t.Helper()
	e, err := NewEngine(Options{
		Geom:      fabric.NewGeometry(2, 16),
		Allocator: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineAcceleratesLoop(t *testing.T) {
	// Reference GPP-only cycles.
	cRef := loopCore(t)
	gppCycles, _, err := RunGPPOnly(cRef, gpp.DefaultTiming(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	c := loopCore(t)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.A0] != loopReference(200) {
		t.Fatalf("architectural result corrupted: %d", c.Regs[isa.A0])
	}
	if rep.Offloads == 0 {
		t.Fatal("hot loop never offloaded")
	}
	if rep.CGRAInstrs == 0 || rep.OffloadRate() < 0.5 {
		t.Errorf("offload rate = %v, want > 0.5 for a hot loop", rep.OffloadRate())
	}
	if rep.TotalCycles >= gppCycles {
		t.Errorf("no speedup: transrec %d vs gpp %d cycles", rep.TotalCycles, gppCycles)
	}
	if rep.TotalCycles != rep.GPPCycles+rep.CGRACycles {
		t.Error("cycle accounting inconsistent")
	}
	if rep.TotalInstrs != rep.GPPInstrs+rep.CGRAInstrs {
		t.Error("instruction accounting inconsistent")
	}
}

// loopReference mirrors loopProgram's arithmetic.
func loopReference(n int) uint32 {
	var sum uint32
	for i := uint32(0); i < uint32(n); i++ {
		sum += (i << 1) + (i ^ sum)
	}
	return sum
}

// Architectural results must be identical regardless of allocator: movement
// changes where configurations execute, never what they compute.
func TestAllocatorsPreserveArchitecturalState(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	allocators := []alloc.Allocator{
		alloc.Baseline{},
		alloc.NewUtilizationAware(g),
		alloc.NewUtilizationAware(g, WithDiagonal()),
		alloc.NewHealthAware(g, 8),
	}
	var want uint32
	for i, a := range allocators {
		c := loopCore(t)
		e := newTestEngine(t, a)
		if _, err := e.Run(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = c.Regs[isa.A0]
			continue
		}
		if c.Regs[isa.A0] != want {
			t.Errorf("%s changed the result: %d vs %d", a.Name(), c.Regs[isa.A0], want)
		}
	}
}

// WithDiagonal is a tiny helper to keep the table above readable.
func WithDiagonal() alloc.Option { return alloc.WithPattern(alloc.Diagonal{}) }

func TestBaselineUtilizationBiasedTopLeft(t *testing.T) {
	c := loopCore(t)
	e := newTestEngine(t, alloc.Baseline{})
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	u := rep.Util
	maxD, cell := u.Max()
	if maxD == 0 {
		t.Fatal("no utilization recorded")
	}
	if cell.Col > 2 {
		t.Errorf("hottest FU at %v, expected near column 0 (greedy corner bias)", cell)
	}
	// Row 0 must be at least as hot as row 1 on average.
	var r0, r1 float64
	for col := 0; col < u.Geom.Cols; col++ {
		r0 += u.At(0, col)
		r1 += u.At(1, col)
	}
	if r0 < r1 {
		t.Errorf("row 0 avg %v < row 1 avg %v; greedy bias missing", r0, r1)
	}
}

func TestRotationFlattensUtilization(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	run := func(a alloc.Allocator) *Report {
		c := loopCore(t)
		e := newTestEngine(t, a)
		rep, err := e.Run(c, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(alloc.Baseline{})
	rot := run(alloc.NewUtilizationAware(g))

	bMax, _ := base.Util.Max()
	rMax, _ := rot.Util.Max()
	if rMax >= bMax {
		t.Errorf("rotation did not reduce worst-case duty: %v vs %v", rMax, bMax)
	}
	// Averages should be close: rotation redistributes, it does not add
	// work (durations can differ slightly via reconfiguration charges).
	if ratio := rot.Util.Avg() / base.Util.Avg(); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("rotation changed average duty too much: ratio %v", ratio)
	}
}

func TestRotationPerformanceOverheadNegligible(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	run := func(a alloc.Allocator) uint64 {
		c := loopCore(t)
		e := newTestEngine(t, a)
		rep, err := e.Run(c, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	base := run(alloc.Baseline{})
	rot := run(alloc.NewUtilizationAware(g))
	overhead := float64(rot)/float64(base) - 1
	if overhead > 0.02 {
		t.Errorf("rotation performance overhead %.2f%% exceeds 2%%", overhead*100)
	}
}

func TestEarlyExitOnDivergentBranch(t *testing.T) {
	// A loop with a data-dependent inner branch: configurations capturing
	// one direction must early-exit when the other direction occurs.
	src := `
	_start:
		li   s0, 0
		li   s1, 0
		li   s2, 300
	loop:
		andi t0, s1, 3
		beqz t0, skip
		addi s0, s0, 7
	skip:
		addi s0, s0, 1
		addi s1, s1, 1
		blt  s1, s2, loop
		mv   a0, s0
		ecall
	`
	p, err := isa.Assemble(src, isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	c := gpp.New(p)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(300 + 225*7)
	if c.Regs[isa.A0] != want {
		t.Fatalf("result %d, want %d", c.Regs[isa.A0], want)
	}
	if rep.Offloads > 0 && rep.EarlyExits == 0 {
		t.Error("data-dependent branch never caused an early exit")
	}
}

func TestProfitGate(t *testing.T) {
	// With the gate on, no configuration may be projected slower than GPP.
	c := loopCore(t)
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range e.Cache().Configs() {
		var gppCycles uint64
		tm := gpp.DefaultTiming()
		for _, op := range cfg.Ops {
			gppCycles += tm.CyclesFor(op.Inst, op.Taken)
		}
		if 4+cfg.ExecCycles() >= gppCycles {
			t.Errorf("unprofitable config at %#x cached", cfg.StartPC)
		}
	}
	_ = rep
}

func TestEngineOnRealBenchmark(t *testing.T) {
	b, _ := prog.ByName("crc32")
	c, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, nil)
	rep, err := e.Run(c, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	// Architectural correctness through the whole engine.
	if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
		t.Fatal(err)
	}
	if rep.Offloads == 0 {
		t.Error("crc32 hot loop never offloaded")
	}
	if rep.Translations == 0 || rep.Cache.Insertions == 0 {
		t.Error("no translations recorded")
	}
}

// TestUnplaceableConfigFallsBackToGPP kills the whole fabric between two
// runs sharing one engine: the cached configurations (translated healthy)
// have no live placement left, so the baseline allocator cannot move them
// and every offload must fall back to the GPP — with the architectural
// result still correct and all cycles attributed to the GPP.
func TestUnplaceableConfigFallsBackToGPP(t *testing.T) {
	b, _ := prog.ByName("crc32")
	geom := fabric.NewGeometry(2, 8)
	health := fabric.NewHealth(geom)
	e, err := NewEngine(Options{Geom: geom, Health: health})
	if err != nil {
		t.Fatal(err)
	}

	c1, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := e.Run(c1, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Offloads == 0 {
		t.Fatal("healthy run never offloaded; the fallback test needs cached configs")
	}

	for r := 0; r < geom.Rows; r++ {
		for col := 0; col < geom.Cols; col++ {
			health.Kill(fabric.Cell{Row: r, Col: col})
		}
	}
	c2, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e.Run(c2, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(c2.Mem, c2.Regs[isa.A0], prog.Tiny); err != nil {
		t.Fatalf("wrong result on fully dead fabric: %v", err)
	}
	// Report counters accumulate across runs on a shared engine; the
	// second run must have added no offloads and no CGRA instructions.
	if rep2.Offloads != rep1.Offloads {
		t.Errorf("dead fabric still offloaded: %d -> %d", rep1.Offloads, rep2.Offloads)
	}
	if rep2.CGRAInstrs != rep1.CGRAInstrs {
		t.Errorf("dead fabric executed CGRA instructions: %d -> %d", rep1.CGRAInstrs, rep2.CGRAInstrs)
	}
	if got := rep2.GPPInstrs - rep1.GPPInstrs; got != c2.RetiredCount() {
		t.Errorf("GPP fallback attributed %d instrs, want all %d retired", got, c2.RetiredCount())
	}
}

func TestRunGPPOnlyMatchesInterpreter(t *testing.T) {
	c := loopCore(t)
	cycles, classes, err := RunGPPOnly(c, gpp.DefaultTiming(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || classes.Total() != c.RetiredCount() {
		t.Errorf("cycles=%d classTotal=%d retired=%d", cycles, classes.Total(), c.RetiredCount())
	}
	if c.Regs[isa.A0] != loopReference(200) {
		t.Error("GPP-only run corrupted result")
	}
}

func TestEngineLimit(t *testing.T) {
	p, err := isa.Assemble("loop: j loop", isa.AsmOptions{TextBase: gpp.TextBase})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, nil)
	if _, err := e.Run(gpp.New(p), 1000); err == nil {
		t.Fatal("expected instruction-limit error")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewEngine(Options{}); err == nil {
		t.Error("zero geometry accepted")
	}
}
