package dbt

import (
	"reflect"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/cfgcache"
	"agingcgra/internal/core"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
	recov "agingcgra/internal/recover"
	"agingcgra/internal/remap"
	"agingcgra/internal/searchcost"
)

// naiveEngine is an independent reference implementation of the TransRec
// co-simulation that executes the program on a gpp.Core, transcribed from
// the original (pre-optimization) execution-driven engine: per-instruction
// map probes through the plain cfgcache API, per-op execution during
// replay with per-op accounting, switch-dispatched timing attribution, one
// mapper run per captured trace (no memo of rejected translations) and a
// serial shape-ladder scan. It models every regime the engine does: dead
// cells masked from the mapper (or withheld from it under
// StaleTranslations), shape-aware translation keyed on the health version,
// shape-adaptive remapping through PlaceOrRemap with the unplaceable memo,
// and the fault-detection and recovery loop. The optimized Engine, which
// replays a recorded flow instead of executing, must produce bit-identical
// Reports against it on every workload.
type naiveEngine struct {
	opts     Options
	cache    *cfgcache.Cache
	ctrl     *core.Controller
	disabled func(fabric.Cell) bool
	shapes   []fabric.Geometry
	search   searchcost.Counts

	stateFlushed   bool
	unplaceable    map[uint32]bool
	unplaceableVer uint64

	trace []mapper.TraceEntry

	residentPC  uint32
	residentOff fabric.Offset
	hasResident bool

	rep Report
}

func newNaiveEngine(opts Options) (*naiveEngine, error) {
	opts.applyDefaults()
	if err := opts.Geom.Validate(); err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(opts.Geom, opts.Allocator)
	if err != nil {
		return nil, err
	}
	e := &naiveEngine{
		opts:  opts,
		cache: cfgcache.New(opts.CacheCapacity),
		ctrl:  ctrl,
	}
	if opts.ShapeTranslations {
		e.shapes = fabric.DefaultShapeLadder().Shapes(opts.Geom)
	}
	if opts.Health != nil {
		if !opts.StaleTranslations {
			e.disabled = opts.Health.Dead
		}
		ctrl.SetHealth(opts.Health)
	}
	return e, nil
}

func (e *naiveEngine) run(c *gpp.Core, limit uint64) (*Report, error) {
	var allocStart, monStart searchcost.Counts
	instrumented, _ := e.ctrl.Allocator().(searchcost.Instrumented)
	if instrumented != nil {
		allocStart = instrumented.SearchCounts()
	}
	if e.opts.Recovery != nil {
		monStart = e.opts.Recovery.SearchCounts()
	}
	for !c.Halted() {
		if c.RetiredCount() >= limit {
			return nil, errLimit
		}
		if cfg, ok := e.cache.Lookup(c.PC); ok {
			e.finalizeTrace()
			if err := e.offload(c, cfg); err != nil {
				return nil, err
			}
			continue
		}
		r, err := e.stepOnGPP(c)
		if err != nil {
			return nil, err
		}
		e.observe(r)
	}
	e.finalizeTrace()
	e.rep.Geom = e.opts.Geom
	e.rep.AllocatorName = e.ctrl.Allocator().Name()
	e.rep.TotalCycles = e.rep.GPPCycles + e.rep.CGRACycles
	e.rep.TotalInstrs = e.rep.GPPInstrs + e.rep.CGRAInstrs
	e.rep.Cache = e.cache.Stats()
	e.rep.Util = e.ctrl.Utilization()
	e.rep.Search = e.search
	if instrumented != nil {
		e.rep.Search.Add(instrumented.SearchCounts().Sub(allocStart))
	}
	if e.opts.Recovery != nil {
		e.rep.Search.Add(e.opts.Recovery.SearchCounts().Sub(monStart))
	}
	rep := e.rep
	return &rep, nil
}

var errLimit = &limitError{}

type limitError struct{}

func (*limitError) Error() string { return "naive: instruction limit reached" }

func (e *naiveEngine) healthVersion() uint64 {
	if e.opts.Health != nil {
		return e.opts.Health.Version()
	}
	return 0
}

func (e *naiveEngine) stepOnGPP(c *gpp.Core) (gpp.Retire, error) {
	r, err := c.Step()
	if err != nil {
		return r, err
	}
	e.rep.GPPCycles += e.opts.Timing.CyclesFor(r.Inst, r.Taken)
	e.rep.GPPInstrs++
	e.rep.GPPClasses[r.Inst.Op.Class()]++
	return r, nil
}

func (e *naiveEngine) offload(c *gpp.Core, cfg *fabric.Config) error {
	if mon := e.opts.Recovery; mon != nil && mon.FabricDistrusted() {
		_, err := e.stepOnGPP(c)
		return err
	}
	if e.opts.ShapeTranslations {
		if e.cache.SyncState(e.healthVersion()) || e.stateFlushed {
			e.stateFlushed = false
			r, err := e.stepOnGPP(c)
			if err != nil {
				return err
			}
			e.observe(r)
			return nil
		}
	}
	if h := e.ctrl.Health(); h != nil && e.unplaceable != nil {
		if e.unplaceableVer != h.Version() {
			e.unplaceable, e.unplaceableVer = nil, h.Version()
		} else if e.unplaceable[cfg.StartPC] {
			e.rep.GPPFallbacks++
			_, err := e.stepOnGPP(c)
			return err
		}
	}
	mapped, off, ok := e.ctrl.PlaceOrRemap(cfg)
	if !ok {
		if e.unplaceable == nil {
			e.unplaceable = make(map[uint32]bool)
			e.unplaceableVer = e.ctrl.Health().Version()
		}
		e.unplaceable[cfg.StartPC] = true
		e.rep.GPPFallbacks++
		_, err := e.stepOnGPP(c)
		return err
	}
	if mapped != cfg {
		e.rep.Remaps++
	}

	// Execute the sequence op by op while the core's control flow follows
	// it, stopping after a branch that leaves it.
	exitSeq := mapped.Ops[0].Seq
	early := false
	n := 0
	var classes ClassCounts
	var gppCycles uint64
	for _, op := range mapped.Ops {
		if c.PC != op.PC {
			early = true
			break
		}
		r, err := c.Step()
		if err != nil {
			return err
		}
		n++
		classes[op.Inst.Op.Class()]++
		gppCycles += e.opts.Timing.CyclesFor(op.Inst, op.Taken)
		exitSeq = op.Seq
		if op.Inst.IsBranch() && r.Taken != op.Taken {
			early = true
			break
		}
	}

	execCycles := mapped.ExecCyclesTo(exitSeq)
	overhead := offloadOverhead
	var reconfig uint64
	if !e.hasResident || e.residentPC != mapped.StartPC || e.residentOff != off {
		if e.opts.ExposeReconfig {
			if rc := e.opts.Geom.ReconfigCycles(); rc > overhead {
				reconfig = rc - overhead
			}
		}
		e.residentPC, e.residentOff, e.hasResident = mapped.StartPC, off, true
		e.rep.ReconfigEvents++
	}
	if early {
		e.rep.EarlyExits++
	}

	mon := e.opts.Recovery
	if mon == nil {
		duration := overhead + reconfig + execCycles
		e.ctrl.Commit(mapped, off, duration)
		e.rep.StressSum += uint64(len(mapped.Cells())) * duration
		e.rep.CGRACycles += duration
		e.rep.OverheadCycles += overhead
		e.rep.ReconfigCycles += reconfig
		e.rep.Offloads++
		e.rep.CGRAInstrs += uint64(n)
		e.rep.CGRAClasses.Add(classes)
		return nil
	}

	// Fault manifestation, detection, bounded retries and GPP backoff.
	cells := mapped.Cells()
	for attempt := 0; ; attempt++ {
		duration := overhead + execCycles
		if attempt == 0 {
			duration += reconfig
			e.rep.ReconfigCycles += reconfig
			e.rep.Offloads++
		} else {
			mon.RecordRetry(duration)
		}
		e.ctrl.Commit(mapped, off, duration)
		e.rep.StressSum += uint64(len(cells)) * duration
		e.rep.CGRACycles += duration
		e.rep.OverheadCycles += overhead
		faulted := mon.DrawExec(cells, off)
		if attempt == 0 && !mon.SampleCheck() {
			if faulted {
				mon.RecordEscape()
			}
			break
		}
		mon.PriceCheck(n)
		if !faulted {
			if attempt > 0 {
				mon.RecordRetrySuccess()
			}
			break
		}
		mon.RecordDetection(cells, off)
		if attempt >= mon.MaxRetries() || mon.FabricDistrusted() {
			mon.RecordBackoff()
			e.rep.GPPInstrs += uint64(n)
			e.rep.GPPClasses.Add(classes)
			e.rep.GPPCycles += gppCycles
			return nil
		}
	}
	e.rep.CGRAInstrs += uint64(n)
	e.rep.CGRAClasses.Add(classes)
	return nil
}

func (e *naiveEngine) observe(r gpp.Retire) {
	e.trace = append(e.trace, mapper.TraceEntry{PC: r.PC, Inst: r.Inst, Taken: r.Taken})
	backEdge := r.Taken && r.Inst.IsControl() && r.Inst.Imm < 0
	terminator := r.Inst.Op == isa.JALR ||
		r.Inst.Op == isa.ECALL ||
		backEdge ||
		len(e.trace) >= maxTraceLen ||
		e.cache.Contains(r.NextPC)
	if terminator {
		e.finalizeTrace()
	}
}

func (e *naiveEngine) finalizeTrace() {
	if len(e.trace) < minOps {
		e.trace = e.trace[:0]
		return
	}
	if e.shapes != nil && e.cache.SyncState(e.healthVersion()) {
		e.stateFlushed = true
	}
	var cfg *fabric.Config
	var consumed int
	if e.shapes != nil {
		cfg, consumed = e.scanLadder()
	} else {
		cfg, consumed = mapper.Map(e.trace, mapper.Options{
			Geom:     e.opts.Geom,
			Lat:      fabric.DefaultLatencies(),
			Disabled: e.disabled,
		})
	}
	e.trace = e.trace[:0]
	if cfg == nil || consumed < minOps {
		return
	}
	var gppCycles uint64
	for _, op := range cfg.Ops {
		gppCycles += e.opts.Timing.CyclesFor(op.Inst, op.Taken)
	}
	if offloadOverhead+cfg.ExecCycles() >= gppCycles {
		return
	}
	e.cache.Insert(cfg)
	e.rep.Translations++
}

// scanLadder maps the trace at every rung of the shape ladder, in order,
// and keeps the candidate consuming the most ops, then the fewest exec
// cycles, then the least wear over its cells.
func (e *naiveEngine) scanLadder() (*fabric.Config, int) {
	e.search.LadderScans++
	e.search.LadderCandidates += uint64(len(e.shapes))
	var best *fabric.Config
	var bestConsumed int
	var bestCycles uint64
	var bestWear float64
	for _, g := range e.shapes {
		cfg, consumed := mapper.Map(e.trace, mapper.Options{
			Geom:     g,
			Lat:      fabric.DefaultLatencies(),
			Disabled: e.disabled,
			Probes:   &e.search.LadderProbes,
		})
		if cfg == nil {
			continue
		}
		cycles := cfg.ExecCycles()
		wear := 0.0
		if w := e.ctrl.Wear(); w != nil {
			for _, cell := range cfg.Cells() {
				wear = max(wear, w.YearsAt(cell))
			}
		}
		if best == nil || consumed > bestConsumed ||
			(consumed == bestConsumed && (cycles < bestCycles ||
				(cycles == bestCycles && wear < bestWear))) {
			best, bestConsumed, bestCycles, bestWear = cfg, consumed, cycles, wear
		}
	}
	return best, bestConsumed
}

// regime is one translation/recovery regime of the engine.
type regime struct {
	name     string
	stale    bool // StaleTranslations
	shape    bool // ShapeTranslations
	recovery int  // 0 off, 1 quarantine and retries, 2 fail-stop
}

var regimes = []regime{
	{name: "default"},
	{name: "stale", stale: true},
	{name: "shape", shape: true},
	{name: "recovery", recovery: 1},
}

// differentialCase is one point of the engine-vs-naive comparison.
type differentialCase struct {
	bench     *prog.Benchmark
	geom      fabric.Geometry
	allocator func(fabric.Geometry) alloc.Allocator
	capacity  int
	dead      []fabric.Cell
	regime    regime
	faultProb float64 // per-execution fault probability of live cells
}

// options builds one engine's options. Every call returns fresh mutable
// state (health map, fault map, monitor), so the two engines under
// comparison start from identical but separate fabrics.
func (dc differentialCase) options(t testing.TB) Options {
	opts := Options{
		Geom:              dc.geom,
		Allocator:         dc.allocator(dc.geom),
		CacheCapacity:     dc.capacity,
		StaleTranslations: dc.regime.stale,
		ShapeTranslations: dc.regime.shape,
	}
	truth, err := fabric.NewHealthWithDead(dc.geom, dc.dead)
	if err != nil {
		t.Fatal(err)
	}
	if dc.regime.recovery == 0 {
		if len(dc.dead) > 0 {
			opts.Health = truth
		}
		return opts
	}
	faults := fabric.NewFaults(dc.geom)
	for r := 0; r < dc.geom.Rows; r++ {
		for c := 0; c < dc.geom.Cols; c++ {
			if cell := (fabric.Cell{Row: r, Col: c}); !truth.Dead(cell) {
				faults.Set(cell, dc.faultProb)
			}
		}
	}
	policy := recov.Policy{CheckEvery: 2, FailStop: dc.regime.recovery == 2}
	mon := recov.NewMonitor(dc.geom, policy, truth, faults, 7)
	opts.Recovery = mon
	opts.Health = mon.Observed()
	return opts
}

// check runs the naive execution-driven engine and the flow-driven Engine
// on the case and fails on any difference in the Report or the final
// register file.
func (dc differentialCase) check(t testing.TB) {
	b := dc.bench
	cNaive, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer cNaive.Release()
	ref, err := newNaiveEngine(dc.options(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.run(cNaive, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}

	cRec, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer cRec.Release()
	flow, err := gpp.Record(cRec, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dc.options(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunFlow(flow)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Errorf("flow-driven report diverges from the naive execution-driven reference\nnaive: %+v\n flow: %+v", want, got)
	}
	if cNaive.Regs != cRec.Regs {
		t.Errorf("architectural register state diverges")
	}
}

// TestEngineMatchesNaiveReference asserts that the optimized Engine (flow
// replay, dense translation table, batched prefix accounting, precomputed
// timing tables, rejected-translation memo, striped ladder scan) produces a
// Report identical in every field — cycle and instruction counters, class
// vectors, cache statistics, search counts and the utilization map — to
// the naive execution-driven reference, across workloads, allocators and
// regimes, on a healthy fabric and on one with a dead column (the mapper
// re-translates around it and placement skips the pivots that would drive
// it, or remaps around them).
func TestEngineMatchesNaiveReference(t *testing.T) {
	workloads := []string{"crc32", "bitcount", "stringsearch"}
	geom := fabric.NewGeometry(2, 16)
	fabrics := []struct {
		name string
		dead []fabric.Cell
	}{
		{"healthy", nil},
		{"dead-column", fabric.DeadColumnCells(geom, 8)},
	}
	for _, name := range workloads {
		b, ok := prog.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		for _, al := range differentialAllocators {
			t.Run(name+"/"+al.name, func(t *testing.T) {
				for _, fab := range fabrics {
					t.Run(fab.name, func(t *testing.T) {
						for _, r := range regimes {
							t.Run(r.name, func(t *testing.T) {
								differentialCase{
									bench:     b,
									geom:      geom,
									allocator: al.factory,
									capacity:  128,
									dead:      fab.dead,
									regime:    r,
									faultProb: 0.05,
								}.check(t)
							})
						}
					})
				}
			})
		}
	}
}

// differentialAllocators are the allocators the differential tests cover,
// from the paper's baseline to the shape-adaptive remapper.
var differentialAllocators = []struct {
	name    string
	factory func(fabric.Geometry) alloc.Allocator
}{
	{"baseline", func(fabric.Geometry) alloc.Allocator { return alloc.Baseline{} }},
	{"utilization-aware", func(g fabric.Geometry) alloc.Allocator { return alloc.NewUtilizationAware(g) }},
	{"explore", func(g fabric.Geometry) alloc.Allocator { return explore.New(g) }},
	{"remap", func(g fabric.Geometry) alloc.Allocator { return remap.New(g) }},
}

// fuzzGeoms are the fabrics FuzzFlowMatchesNaive draws from.
var fuzzGeoms = []fabric.Geometry{
	fabric.NewGeometry(2, 16),
	fabric.NewGeometry(2, 8),
	fabric.NewGeometry(4, 8),
	fabric.NewGeometry(4, 16),
}

// FuzzFlowMatchesNaive is the differential fuzz target of the flow-driven
// engine: for a fuzzed Tiny kernel, geometry, allocator, cache capacity,
// dead-cell bitmask (bit i kills FU i mod 64), translation regime
// (default, stale or shape) and recovery mode (off, quarantine with
// retries, or fail-stop) with a fuzzed fault probability, the Engine's
// RunFlow Report must deep-equal the naive execution-driven engine's and
// the final registers must match. The corpus is seeded with
// TestEngineMatchesNaiveReference's table.
func FuzzFlowMatchesNaive(f *testing.F) {
	names := prog.Names()
	index := func(name string) uint8 {
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("unknown benchmark %q", name)
		return 0
	}
	deadCol8 := uint64(1)<<8 | uint64(1)<<(16+8) // column 8 of the 2x16 fabric
	for _, name := range []string{"crc32", "bitcount", "stringsearch"} {
		for al := range differentialAllocators {
			for _, dead := range []uint64{0, deadCol8} {
				for _, r := range []uint8{0, 1, 2} {
					f.Add(index(name), uint8(0), uint8(al), uint8(127), dead, r, uint8(0), uint8(0))
				}
				f.Add(index(name), uint8(0), uint8(al), uint8(127), dead, uint8(0), uint8(1), uint8(64))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kernel, geom, allocator, capacity uint8, dead uint64, translation, recovery, faultProb uint8) {
		dc := differentialCase{
			bench:     prog.All()[int(kernel)%len(names)],
			geom:      fuzzGeoms[int(geom)%len(fuzzGeoms)],
			allocator: differentialAllocators[int(allocator)%len(differentialAllocators)].factory,
			capacity:  1 + int(capacity)%128,
			regime:    regime{recovery: int(recovery) % 3},
			faultProb: 0.2 * float64(faultProb) / 255,
		}
		switch translation % 3 {
		case 1:
			dc.regime.stale = true
		case 2:
			dc.regime.shape = true
		}
		for i := 0; i < dc.geom.NumFUs(); i++ {
			if dead&(1<<(i%64)) != 0 {
				dc.dead = append(dc.dead, fabric.Cell{Row: i / dc.geom.Cols, Col: i % dc.geom.Cols})
			}
		}
		dc.check(t)
	})
}

// TestShapeEquivalentArchitecturalState is the engine-level half of the
// architectural-equivalence layer behind the shape-adaptive remapper and
// the translation-time shape search: for every kernel in the suite,
// co-simulating on reshaped fabrics (2×16, 4×8, 8×4, 16×2 — the same 32
// FUs in different rectangles) under the remap allocator yields
// byte-identical architectural state in the Report and the core — the same
// retired-instruction total and the same final register file, with the
// golden checksum intact — and the same holds when the DBT itself chooses
// the shape per translation (ShapeTranslations walking the candidate
// ladder). Shapes redistribute ops in space and change only the
// performance numbers; any divergence here means a mapping leaked into
// architectural behaviour and reshaping (at either layer) would be
// unsound.
func TestShapeEquivalentArchitecturalState(t *testing.T) {
	geoms := []fabric.Geometry{
		fabric.NewGeometry(2, 16),
		fabric.NewGeometry(4, 8),
		fabric.NewGeometry(8, 4),
		fabric.NewGeometry(16, 2),
	}
	modes := []struct {
		name   string
		shaped bool
	}{
		{"identity-translation", false},
		{"dbt-chosen-shapes", true},
	}
	for _, name := range prog.Names() {
		t.Run(name, func(t *testing.T) {
			b, ok := prog.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			type outcome struct {
				geom   fabric.Geometry
				mode   string
				regs   [isa.NumRegs]uint32
				instrs uint64
			}
			var first *outcome
			for _, mode := range modes {
				for _, g := range geoms {
					c, err := b.NewCore(prog.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := NewEngine(Options{
						Geom:              g,
						Allocator:         remap.New(g),
						ShapeTranslations: mode.shaped,
					})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := eng.Run(c, b.MaxInstructions)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
						t.Fatalf("%v/%s: wrong architectural result: %v", g, mode.name, err)
					}
					got := &outcome{geom: g, mode: mode.name, regs: c.Regs, instrs: rep.TotalInstrs}
					if first == nil {
						first = got
						continue
					}
					if got.regs != first.regs {
						t.Errorf("register file diverges between %v/%s and %v/%s",
							first.geom, first.mode, g, mode.name)
					}
					if got.instrs != first.instrs {
						t.Errorf("retired instructions diverge: %v/%s ran %d, %v/%s ran %d",
							first.geom, first.mode, first.instrs, g, mode.name, got.instrs)
					}
				}
			}
		})
	}
}

// TestForeignConfigsMatchNaive covers replay of configurations that are
// not traces of the running program: a remap cache shared by a mix can
// hand one program a configuration translated from another that shares
// its text base. bitcount's translations are preloaded into the
// caches of an Engine and of the naive engine running crc32: the Engine
// must follow them address by address exactly as executing them does, and
// they must change the outcome (they are looked up and replayed).
func TestForeignConfigsMatchNaive(t *testing.T) {
	geom := fabric.NewGeometry(2, 16)
	record := func(name string) (*prog.Benchmark, *gpp.Flow) {
		b, ok := prog.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release()
		f, err := gpp.Record(c, b.MaxInstructions)
		if err != nil {
			t.Fatal(err)
		}
		return b, f
	}
	_, donor := record("bitcount")
	eng, err := NewEngine(Options{Geom: geom})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunFlow(donor); err != nil {
		t.Fatal(err)
	}
	foreign := eng.Cache().Configs()

	b, f := record("crc32")
	alien := 0
	for _, cfg := range foreign {
		p := f.Program()
		for _, op := range cfg.Ops {
			if i := p.IndexOf(op.PC); i < 0 || p.Text[i] != op.Inst {
				alien++
				break
			}
		}
	}
	if alien == 0 {
		t.Fatal("every bitcount configuration is also a crc32 trace; the test needs foreign ones")
	}

	run := func(preload []*fabric.Config) *Report {
		t.Helper()
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release()
		ref, err := newNaiveEngine(Options{Geom: geom, Allocator: alloc.NewUtilizationAware(geom)})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Options{Geom: geom, Allocator: alloc.NewUtilizationAware(geom)})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range preload {
			ref.cache.Insert(cfg)
			eng.Cache().Insert(cfg)
		}
		want, err := ref.run(c, b.MaxInstructions)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("flow-driven report diverges from the naive reference\nnaive: %+v\n flow: %+v", want, got)
		}
		return got
	}
	if reflect.DeepEqual(run(nil), run(foreign)) {
		t.Error("preloaded foreign configurations never changed the outcome")
	}
}
