package mapper

import (
	"math/rand"
	"testing"

	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
)

func opts(rows, cols int) Options {
	return Options{Geom: fabric.NewGeometry(rows, cols), Lat: fabric.DefaultLatencies()}
}

func alu(pc uint32, rd, rs1, rs2 isa.Reg) TraceEntry {
	return TraceEntry{PC: pc, Inst: isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}}
}

func TestFirstOpAtOrigin(t *testing.T) {
	cfg, n := Map([]TraceEntry{alu(0x1000, isa.T0, isa.A0, isa.A1)}, opts(4, 8))
	if cfg == nil || n != 1 {
		t.Fatalf("Map failed: cfg=%v n=%d", cfg, n)
	}
	op := cfg.Ops[0]
	if op.Row != 0 || op.Col != 0 {
		t.Errorf("first op at (%d,%d), want (0,0) - the greedy corner bias", op.Row, op.Col)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

// Independent ops fill rows top-down at the same column: the bias that
// makes the top rows age fastest.
func TestIndependentOpsFillRowsFirst(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.A0, isa.A2),
		alu(0x1008, isa.T2, isa.A0, isa.A3),
		alu(0x100c, isa.T3, isa.A0, isa.A4),
		alu(0x1010, isa.T4, isa.A0, isa.A5),
	}
	cfg, n := Map(trace, opts(4, 8))
	if n != 5 {
		t.Fatalf("consumed %d, want 5", n)
	}
	wantPos := []fabric.Cell{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 2, Col: 0}, {Row: 3, Col: 0}, {Row: 0, Col: 1}}
	for i, w := range wantPos {
		if cfg.Ops[i].Row != w.Row || cfg.Ops[i].Col != w.Col {
			t.Errorf("op %d at (%d,%d), want (%d,%d)",
				i, cfg.Ops[i].Row, cfg.Ops[i].Col, w.Row, w.Col)
		}
	}
}

// A dependence chain must occupy strictly increasing columns.
func TestDependenceChainSerialises(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.T0, isa.A1),
		alu(0x1008, isa.T2, isa.T1, isa.A1),
	}
	cfg, n := Map(trace, opts(4, 8))
	if n != 3 {
		t.Fatalf("consumed %d, want 3", n)
	}
	for i := 1; i < 3; i++ {
		prev, cur := cfg.Ops[i-1], cfg.Ops[i]
		if cur.Col < prev.EndCol() {
			t.Errorf("op %d col %d starts before producer end %d", i, cur.Col, prev.EndCol())
		}
	}
	if cfg.UsedCols != 3 {
		t.Errorf("UsedCols = %d, want 3", cfg.UsedCols)
	}
}

func TestLoadLatencyAndPort(t *testing.T) {
	ld := func(pc uint32, rd, rs1 isa.Reg) TraceEntry {
		return TraceEntry{PC: pc, Inst: isa.Inst{Op: isa.LW, Rd: rd, Rs1: rs1}}
	}
	// Independent loads: the read port accepts one issue per cycle
	// (ColumnsPerCycle columns), so back-to-back loads pipeline with their
	// issue windows serialised but latencies overlapping.
	cfg, n := Map([]TraceEntry{
		ld(0x1000, isa.T0, isa.A0),
		ld(0x1004, isa.T1, isa.A1),
		ld(0x1008, isa.T2, isa.A2),
	}, opts(4, 16))
	if n != 3 {
		t.Fatalf("consumed %d, want 3", n)
	}
	for i := 1; i < 3; i++ {
		prev, cur := cfg.Ops[i-1], cfg.Ops[i]
		if prev.Width != 4 || cur.Width != 4 {
			t.Fatalf("load widths %d,%d, want 4", prev.Width, cur.Width)
		}
		gap := cur.Col - prev.Col
		if gap < fabric.ColumnsPerCycle {
			t.Errorf("load %d issued %d columns after load %d; port accepts one per cycle",
				i, gap, i-1)
		}
	}
	// They must pipeline rather than fully serialise: the second load
	// starts before the first finishes (different rows).
	if cfg.Ops[1].Col >= cfg.Ops[0].EndCol() {
		t.Errorf("loads fully serialised (col %d >= %d); expected pipelining",
			cfg.Ops[1].Col, cfg.Ops[0].EndCol())
	}
}

func TestLoadStoreOrdering(t *testing.T) {
	trace := []TraceEntry{
		{PC: 0x1000, Inst: isa.Inst{Op: isa.SW, Rs1: isa.A0, Rs2: isa.A1}},
		{PC: 0x1004, Inst: isa.Inst{Op: isa.LW, Rd: isa.T0, Rs1: isa.A2}},
	}
	cfg, n := Map(trace, opts(4, 16))
	if n != 2 {
		t.Fatalf("consumed %d, want 2", n)
	}
	if cfg.Ops[1].Col < cfg.Ops[0].EndCol() {
		t.Error("load reordered above store (no disambiguation allowed)")
	}
}

func TestStoreWaitsForBranch(t *testing.T) {
	trace := []TraceEntry{
		{PC: 0x1000, Inst: isa.Inst{Op: isa.BNE, Rs1: isa.A0, Rs2: isa.A1, Imm: 8}},
		{PC: 0x1004, Inst: isa.Inst{Op: isa.SW, Rs1: isa.A2, Rs2: isa.A3}},
	}
	cfg, n := Map(trace, opts(4, 16))
	if n != 2 {
		t.Fatalf("consumed %d, want 2", n)
	}
	if cfg.Ops[1].Col < cfg.Ops[0].EndCol() {
		t.Error("speculative store placed before branch resolution")
	}
}

func TestALUCanSpeculatePastBranch(t *testing.T) {
	trace := []TraceEntry{
		{PC: 0x1000, Inst: isa.Inst{Op: isa.BNE, Rs1: isa.A0, Rs2: isa.A1, Imm: 8}},
		alu(0x1004, isa.T0, isa.A2, isa.A3),
	}
	cfg, n := Map(trace, opts(4, 16))
	if n != 2 {
		t.Fatalf("consumed %d, want 2", n)
	}
	if cfg.Ops[1].Col != 0 {
		t.Errorf("independent ALU op after branch at col %d, want 0 (speculation allowed)", cfg.Ops[1].Col)
	}
}

func TestJALTakesNoFU(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		{PC: 0x1004, Inst: isa.Inst{Op: isa.JAL, Rd: isa.RA, Imm: 64}, Taken: true},
		alu(0x1044, isa.T1, isa.T0, isa.A1),
	}
	cfg, n := Map(trace, opts(2, 8))
	if n != 3 {
		t.Fatalf("consumed %d, want 3", n)
	}
	if cfg.Ops[1].Width != 0 {
		t.Errorf("jal width = %d, want 0", cfg.Ops[1].Width)
	}
	cells := cfg.Cells()
	if len(cells) != 2 {
		t.Errorf("config occupies %d cells, want 2 (jal consumes none)", len(cells))
	}
}

func TestJALRStopsMapping(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		{PC: 0x1004, Inst: isa.Inst{Op: isa.JALR, Rd: isa.X0, Rs1: isa.RA}, Taken: true},
		alu(0x1008, isa.T1, isa.T0, isa.A1),
	}
	cfg, n := Map(trace, opts(2, 8))
	if n != 1 {
		t.Fatalf("consumed %d, want 1 (jalr terminates)", n)
	}
	if cfg.NumOps() != 1 {
		t.Errorf("ops = %d, want 1", cfg.NumOps())
	}
}

func TestECALLStopsMapping(t *testing.T) {
	trace := []TraceEntry{
		{PC: 0x1000, Inst: isa.Inst{Op: isa.ECALL}},
	}
	cfg, n := Map(trace, opts(2, 8))
	if cfg != nil || n != 0 {
		t.Fatalf("ecall should not map: cfg=%v n=%d", cfg, n)
	}
}

func TestCapacityTruncation(t *testing.T) {
	// A 2x2 fabric fits at most 4 single-column ALU ops.
	var trace []TraceEntry
	for i := 0; i < 10; i++ {
		trace = append(trace, alu(uint32(0x1000+4*i), isa.T0, isa.A0, isa.A1))
	}
	// Make them independent (different dests don't matter; sources the same).
	cfg, n := Map(trace, opts(2, 2))
	if cfg == nil {
		t.Fatal("nil config")
	}
	if n != 4 {
		t.Errorf("consumed %d, want 4 (fabric capacity)", n)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestContextPressureTruncates(t *testing.T) {
	// Each op produces a value consumed far away, accumulating live values
	// across the middle boundary. With only 2 context lines the third
	// long-range value must not fit.
	g := fabric.Geometry{Rows: 8, Cols: 16, CtxLines: 2, CfgLines: 4}
	o := Options{Geom: g, Lat: fabric.DefaultLatencies()}
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A0),
		alu(0x1004, isa.T1, isa.T0, isa.T0), // consumes T0 at col 1
		alu(0x1008, isa.T2, isa.T1, isa.T1),
		alu(0x100c, isa.T3, isa.T2, isa.T2),
		alu(0x1010, isa.T4, isa.T0, isa.T3), // T0 live range stretches: 2 lines crossing
		alu(0x1014, isa.T5, isa.T1, isa.T4), // T1 stretches too: 3 on some boundary
	}
	cfg, n := Map(trace, o)
	if cfg == nil {
		t.Fatal("nil config")
	}
	if n >= len(trace) {
		t.Errorf("consumed %d, expected truncation before %d", n, len(trace))
	}
}

func TestConsumedMatchesOps(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.T0, isa.A1),
	}
	cfg, n := Map(trace, opts(2, 8))
	if n != cfg.NumOps() {
		t.Errorf("consumed %d != ops %d", n, cfg.NumOps())
	}
	if cfg.StartPC != 0x1000 {
		t.Errorf("StartPC = %#x", cfg.StartPC)
	}
}

// randomTrace builds a plausible random trace for property testing.
func randomTrace(r *rand.Rand, n int) []TraceEntry {
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.A0, isa.A1, isa.A2, isa.S0, isa.S1}
	ops := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.MUL, isa.LW, isa.SW, isa.ADDI, isa.BNE, isa.SLLI}
	var out []TraceEntry
	pc := uint32(0x1000)
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		in := isa.Inst{
			Op:  op,
			Rd:  regs[r.Intn(len(regs))],
			Rs1: regs[r.Intn(len(regs))],
			Rs2: regs[r.Intn(len(regs))],
		}
		if op == isa.ADDI || op == isa.SLLI {
			in.Rs2 = 0
			in.Imm = int32(r.Intn(16))
		}
		if op == isa.BNE {
			in.Rd = 0
			in.Imm = 8
		}
		out = append(out, TraceEntry{PC: pc, Inst: in, Taken: op == isa.BNE && r.Intn(2) == 0})
		pc += 4
	}
	return out
}

// TestMapInvariants is the core property test: for random traces and
// geometries, every produced configuration validates structurally and
// respects dataflow order.
func TestMapInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	geoms := [][2]int{{2, 8}, {2, 16}, {4, 16}, {4, 32}, {8, 32}, {1, 4}}
	for iter := 0; iter < 500; iter++ {
		g := geoms[r.Intn(len(geoms))]
		trace := randomTrace(r, 1+r.Intn(60))
		cfg, n := Map(trace, opts(g[0], g[1]))
		if cfg == nil {
			continue
		}
		if n != cfg.Ops[len(cfg.Ops)-1].Seq+1 {
			t.Fatalf("iter %d: consumed %d mismatches last seq %d", iter, n, cfg.Ops[len(cfg.Ops)-1].Seq)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Dataflow: every consumer starts at or after its producer's end.
		lastWrite := map[isa.Reg]int{} // reg -> end col
		for _, op := range cfg.Ops {
			in := op.Inst
			if in.ReadsRs1() && in.Rs1 != isa.X0 {
				if e, ok := lastWrite[in.Rs1]; ok && op.Width > 0 && op.Col < e {
					t.Fatalf("iter %d: op seq %d reads %v before producer end %d", iter, op.Seq, in.Rs1, e)
				}
			}
			if in.ReadsRs2() && in.Rs2 != isa.X0 {
				if e, ok := lastWrite[in.Rs2]; ok && op.Width > 0 && op.Col < e {
					t.Fatalf("iter %d: op seq %d reads %v before producer end %d", iter, op.Seq, in.Rs2, e)
				}
			}
			if in.WritesRd() {
				if op.Width > 0 {
					lastWrite[in.Rd] = op.EndCol()
				} else {
					lastWrite[in.Rd] = 0
				}
			}
		}
	}
}
