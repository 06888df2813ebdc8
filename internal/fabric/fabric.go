// Package fabric models the TransRec CGRA reconfigurable unit: a matrix of
// functional units (FUs) organised in rows (parallelism) and columns
// (sequential execution), with left-to-right data propagation over context
// lines, per-column crossbars, and a column-broadcast reconfiguration
// network (Fig. 4 and Fig. 5 of the paper).
//
// Time is measured in "columns": the technology's ALU latency is half a
// processor cycle, so one column corresponds to half a cycle and
// ColumnsPerCycle columns execute per processor cycle. Loads and stores are
// bound by the data cache and span four columns (two cycles).
package fabric

import (
	"fmt"

	"agingcgra/internal/isa"
)

// ColumnsPerCycle is the number of fabric columns traversed per processor
// cycle (ALUs have half-cycle latency).
const ColumnsPerCycle = 2

// Geometry describes a fabric instance.
type Geometry struct {
	// Rows is the width W: the number of parallel FUs per column.
	Rows int
	// Cols is the length L: the number of sequential columns.
	Cols int
	// CtxLines is the number of context lines crossing each column
	// boundary; it bounds how many live values a configuration may carry
	// from one column to the next.
	CtxLines int
	// CfgLines is the number n of configuration broadcast lines: the
	// reconfiguration logic writes n columns per cycle (Fig. 5a), so a full
	// reload takes ceil(Cols/CfgLines) cycles.
	CfgLines int
}

// NewGeometry builds a geometry with the default context/configuration
// line provisioning for the given fabric size.
func NewGeometry(rows, cols int) Geometry {
	return Geometry{
		Rows:     rows,
		Cols:     cols,
		CtxLines: DefaultCtxLines(rows),
		CfgLines: DefaultCfgLines(cols),
	}
}

// DefaultCtxLines provisions context lines: enough for every row's result
// plus a couple of long-range values. Live-in values do not consume lines
// end-to-end because the wrap-around 2:1 multiplexer injects the initial
// input context at any column (Section III.B).
func DefaultCtxLines(rows int) int { return 2*rows + 2 }

// DefaultCfgLines is the paper's n=4 configuration broadcast (Fig. 5a).
// Reconfiguration proceeds as a wavefront at CfgLines columns per cycle
// while execution propagates at ColumnsPerCycle columns per cycle; since
// n exceeds the execution rate, the broadcast stays ahead of the data and
// reloading is fully hidden behind the per-offload startup.
func DefaultCfgLines(cols int) int { return 4 }

// maxSide bounds each side of a fabric. Simulator state is allocated per
// FU, so an unbounded geometry from an untrusted request could exhaust
// memory; 64 is far above the largest geometry any sweep uses (8x32).
const maxSide = 64

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	if g.Rows < 1 || g.Cols < 1 {
		return fmt.Errorf("fabric: geometry %dx%d must be at least 1x1", g.Rows, g.Cols)
	}
	if g.Rows > maxSide || g.Cols > maxSide {
		return fmt.Errorf("fabric: geometry %dx%d exceeds the limit of %d per side", g.Rows, g.Cols, maxSide)
	}
	if g.CtxLines < 1 {
		return fmt.Errorf("fabric: geometry needs at least one context line")
	}
	if g.CfgLines < 1 {
		return fmt.Errorf("fabric: geometry needs at least one configuration line")
	}
	return nil
}

// NumFUs returns the total FU cell count W*L.
func (g Geometry) NumFUs() int { return g.Rows * g.Cols }

// ReconfigCycles is the time to broadcast a full configuration into the
// fabric: ceil(Cols / CfgLines). With the default wavefront broadcast this
// latency is overlapped with execution; it is exposed only in the
// ablation that disables the overlap (dbt.Options.ExposeReconfig).
func (g Geometry) ReconfigCycles() uint64 {
	return uint64((g.Cols + g.CfgLines - 1) / g.CfgLines)
}

// String formats the geometry in the paper's (L, W) notation.
func (g Geometry) String() string {
	return fmt.Sprintf("L%d,W%d", g.Cols, g.Rows)
}

// Cell identifies one FU position in the fabric.
type Cell struct {
	Row, Col int
}

// Offset is a toroidal displacement applied to a virtual configuration when
// it is allocated onto the physical fabric: the pivot position of the
// utilization-aware movement (Fig. 3).
type Offset struct {
	Row, Col int
}

// Apply maps a virtual cell to its physical position under the offset,
// with wrap-around in both dimensions.
func (o Offset) Apply(c Cell, g Geometry) Cell {
	return Cell{
		Row: (c.Row + o.Row) % g.Rows,
		Col: (c.Col + o.Col) % g.Cols,
	}
}

// LatencyTable gives each instruction class its column span.
type LatencyTable struct {
	ALU    int // single-column integer ops
	Mul    int // hardware multiplier
	Div    int // iterative divider
	Load   int // data-cache read (paper: four columns / two cycles)
	Store  int // data-cache write
	Branch int // compare-and-exit
}

// DefaultLatencies is the column-span calibration used throughout: ALUs are
// one column (half a cycle) and memory operations four columns (two
// cycles), exactly as in Section III.A; multipliers take a full cycle and
// the divider four cycles.
func DefaultLatencies() LatencyTable {
	return LatencyTable{
		ALU:    1,
		Mul:    2,
		Div:    8,
		Load:   4,
		Store:  4,
		Branch: 1,
	}
}

// Columns returns the column span of an instruction class. ClassSys
// instructions are never mapped; they return 0.
func (t LatencyTable) Columns(c isa.Class) int {
	switch c {
	case isa.ClassALU:
		return t.ALU
	case isa.ClassMul:
		return t.Mul
	case isa.ClassDiv:
		return t.Div
	case isa.ClassLoad:
		return t.Load
	case isa.ClassStore:
		return t.Store
	case isa.ClassBranch:
		return t.Branch
	case isa.ClassJump:
		// Direct jumps consume no FU: their target is a constant resolved
		// at translation time. They still occupy a trace slot.
		return 0
	}
	return 0
}

// Validate checks that every mapped class has a positive span.
func (t LatencyTable) Validate() error {
	for _, v := range []struct {
		name string
		cols int
	}{
		{"ALU", t.ALU}, {"Mul", t.Mul}, {"Div", t.Div},
		{"Load", t.Load}, {"Store", t.Store}, {"Branch", t.Branch},
	} {
		if v.cols < 1 {
			return fmt.Errorf("fabric: latency for %s must be >= 1 column", v.name)
		}
	}
	return nil
}

// CyclesForColumns converts a column count to whole processor cycles.
func CyclesForColumns(cols int) uint64 {
	if cols <= 0 {
		return 0
	}
	return uint64((cols + ColumnsPerCycle - 1) / ColumnsPerCycle)
}
