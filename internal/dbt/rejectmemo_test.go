package dbt

import (
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
)

// independentTrace is eight data-independent ALU ops: on a live 2×16
// fabric they pack into four columns, a profitable translation.
func independentTrace() []mapper.TraceEntry {
	out := make([]mapper.TraceEntry, 8)
	for i := range out {
		out[i] = mapper.TraceEntry{
			PC:   0x1000 + uint32(4*i),
			Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs1: isa.A0, Rs2: isa.A1},
		}
	}
	return out
}

// TestRejectedTranslationRetriedAfterHealthMoves pins the rejection memo's
// validity rule: a trace rejected under one health state is answered from
// the memo — re-adding the searchcost counts of the skipped attempt —
// while the state holds, and is mapped again, and accepted, once the
// health version moves.
func TestRejectedTranslationRetriedAfterHealthMoves(t *testing.T) {
	for _, shaped := range []bool{false, true} {
		name := "identity"
		if shaped {
			name = "shape-ladder"
		}
		t.Run(name, func(t *testing.T) {
			g := fabric.NewGeometry(2, 16)
			h := fabric.NewHealth(g)
			for r := 0; r < g.Rows; r++ {
				for c := 0; c < g.Cols; c++ {
					h.Kill(fabric.Cell{Row: r, Col: c})
				}
			}
			e, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: shaped})
			if err != nil {
				t.Fatal(err)
			}
			e.rejected = newRejectMemo() // as Run sets it up
			trace := independentTrace()
			capture := func() {
				e.trace = append(e.trace[:0], trace...)
				e.finalizeTrace()
			}

			capture()
			if e.rep.Translations != 0 || len(e.rejected.counts) != 1 {
				t.Fatalf("dead fabric: %d translations, %d memoized rejections; want 0 and 1",
					e.rep.Translations, len(e.rejected.counts))
			}
			first := e.search
			if shaped && first.LadderScans != 1 {
				t.Fatalf("first attempt counted %d ladder scans, want 1", first.LadderScans)
			}

			capture()
			want := first
			want.Add(first)
			if e.search != want {
				t.Fatalf("memo hit counted %+v, want the skipped attempt's counts twice: %+v", e.search, want)
			}
			if e.rep.Translations != 0 {
				t.Fatal("memo hit inserted a translation")
			}

			for c := 0; c < 4; c++ {
				h.Revive(fabric.Cell{Row: 0, Col: c})
				h.Revive(fabric.Cell{Row: 1, Col: c})
			}
			capture()
			if e.rep.Translations != 1 || !e.cache.Contains(trace[0].PC) {
				t.Fatalf("after revival: %d translations, cached=%v; want the trace re-mapped and accepted",
					e.rep.Translations, e.cache.Contains(trace[0].PC))
			}
			if len(e.rejected.counts) != 0 {
				t.Fatalf("health move left %d stale rejections in the memo", len(e.rejected.counts))
			}
		})
	}
}

// TestRunDropsRejectionMemo pins the memo's lifetime: it exists only while
// Run executes, so nothing memoized for one program or run leaks into the
// next.
func TestRunDropsRejectionMemo(t *testing.T) {
	e := newTestEngine(t, alloc.Baseline{})
	if _, err := e.Run(loopCore(t), 1<<20); err != nil {
		t.Fatal(err)
	}
	if e.rejected != nil {
		t.Fatal("rejection memo outlived Run")
	}
}

// BenchmarkEngineDeadColumn times one co-simulation of a kernel on a 2×16
// fabric with a dead column: the DBT re-translates around the failure and
// the utilization-aware allocator skips the pivots that would drive it.
func BenchmarkEngineDeadColumn(b *testing.B) {
	bench, ok := prog.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing from the suite")
	}
	g := fabric.NewGeometry(2, 16)
	var instrs uint64
	for i := 0; i < b.N; i++ {
		h, err := fabric.NewHealthWithDead(g, fabric.DeadColumnCells(g, 8))
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(Options{Geom: g, Allocator: alloc.NewUtilizationAware(g), Health: h})
		if err != nil {
			b.Fatal(err)
		}
		c, err := bench.NewCore(prog.Small)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := e.Run(c, bench.MaxInstructions)
		if err != nil {
			b.Fatal(err)
		}
		instrs += rep.TotalInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
