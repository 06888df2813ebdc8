package fabric

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"agingcgra/internal/isa"
)

func TestGeometryValidate(t *testing.T) {
	if err := NewGeometry(2, 16).Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{Rows: 0, Cols: 16, CtxLines: 4, CfgLines: 4},
		{Rows: 2, Cols: 0, CtxLines: 4, CfgLines: 4},
		{Rows: 2, Cols: 16, CtxLines: 0, CfgLines: 4},
		{Rows: 2, Cols: 16, CtxLines: 4, CfgLines: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
}

func TestGeometrySideLimit(t *testing.T) {
	cases := []struct {
		rows, cols int
		ok         bool
	}{
		{64, 64, true},
		{65, 1, false},
		{1, 65, false},
	}
	for _, c := range cases {
		err := NewGeometry(c.rows, c.cols).Validate()
		if c.ok && err != nil {
			t.Errorf("%dx%d rejected: %v", c.rows, c.cols, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "64")) {
			t.Errorf("%dx%d: got %v, want an error naming the limit 64", c.rows, c.cols, err)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := NewGeometry(4, 32)
	if g.NumFUs() != 128 {
		t.Errorf("NumFUs = %d, want 128", g.NumFUs())
	}
	if g.String() != "L32,W4" {
		t.Errorf("String = %q", g.String())
	}
	if g.CfgLines != 4 {
		t.Errorf("CfgLines = %d, want 4 (the paper's Fig. 5 broadcast)", g.CfgLines)
	}
	if g.ReconfigCycles() != 8 {
		t.Errorf("ReconfigCycles = %d, want 8 (32 cols / 4 lines)", g.ReconfigCycles())
	}
	small := NewGeometry(2, 8)
	if small.CfgLines != 4 {
		t.Errorf("small CfgLines = %d, want 4", small.CfgLines)
	}
	if small.CtxLines != 6 {
		t.Errorf("CtxLines = %d, want 2*2+2", small.CtxLines)
	}
}

func TestOffsetApplyWrapAround(t *testing.T) {
	g := NewGeometry(4, 8)
	cases := []struct {
		off  Offset
		in   Cell
		want Cell
	}{
		{Offset{0, 0}, Cell{1, 2}, Cell{1, 2}},
		{Offset{1, 1}, Cell{3, 7}, Cell{0, 0}},
		{Offset{2, 5}, Cell{1, 4}, Cell{3, 1}},
		{Offset{3, 7}, Cell{3, 7}, Cell{2, 6}},
	}
	for _, c := range cases {
		if got := c.off.Apply(c.in, g); got != c.want {
			t.Errorf("Apply(%v, %v) = %v, want %v", c.off, c.in, got, c.want)
		}
	}
}

// Property: applying any offset keeps cells in bounds and is a bijection on
// the cell grid.
func TestOffsetBijection(t *testing.T) {
	g := NewGeometry(4, 8)
	f := func(or, oc uint8) bool {
		off := Offset{Row: int(or) % g.Rows, Col: int(oc) % g.Cols}
		seen := make(map[Cell]bool)
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				p := off.Apply(Cell{r, c}, g)
				if p.Row < 0 || p.Row >= g.Rows || p.Col < 0 || p.Col >= g.Cols {
					return false
				}
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return len(seen) == g.NumFUs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyTable(t *testing.T) {
	lat := DefaultLatencies()
	if err := lat.Validate(); err != nil {
		t.Fatal(err)
	}
	if lat.Columns(isa.ClassALU) != 1 {
		t.Error("ALU must be one column (half a cycle), per Section III.A")
	}
	if lat.Columns(isa.ClassLoad) != 4 || lat.Columns(isa.ClassStore) != 4 {
		t.Error("memory ops must span four columns (two cycles), per Section III.A")
	}
	if lat.Columns(isa.ClassJump) != 0 {
		t.Error("direct jumps consume no FU")
	}
	if lat.Columns(isa.ClassSys) != 0 {
		t.Error("sys ops are never mapped")
	}
	badLat := lat
	badLat.Mul = 0
	if err := badLat.Validate(); err == nil {
		t.Error("zero Mul latency accepted")
	}
}

func TestCyclesForColumns(t *testing.T) {
	cases := []struct {
		cols int
		want uint64
	}{{0, 0}, {-1, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {31, 16}, {32, 16}}
	for _, c := range cases {
		if got := CyclesForColumns(c.cols); got != c.want {
			t.Errorf("CyclesForColumns(%d) = %d, want %d", c.cols, got, c.want)
		}
	}
}

func testConfig() *Config {
	g := NewGeometry(2, 16)
	return &Config{
		StartPC: 0x1000,
		Geom:    g,
		Ops: []PlacedOp{
			{Seq: 0, PC: 0x1000, Inst: isa.Inst{Op: isa.ADD}, Row: 0, Col: 0, Width: 1},
			{Seq: 1, PC: 0x1004, Inst: isa.Inst{Op: isa.LW}, Row: 1, Col: 0, Width: 4},
			{Seq: 2, PC: 0x1008, Inst: isa.Inst{Op: isa.ADD}, Row: 0, Col: 4, Width: 1},
			{Seq: 3, PC: 0x100c, Inst: isa.Inst{Op: isa.JAL}, Taken: true, Width: 0},
			{Seq: 4, PC: 0x0800, Inst: isa.Inst{Op: isa.BNE}, Taken: true, Row: 0, Col: 5, Width: 1},
		},
		UsedCols: 6,
	}
}

func TestConfigValidate(t *testing.T) {
	c := testConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	overlap := testConfig()
	overlap.Ops[2].Col = 0 // collides with op 0
	if err := overlap.Validate(); err == nil {
		t.Error("overlapping ops accepted")
	}

	outside := testConfig()
	outside.Ops[1].Col = 14 // load spans past column 16
	if err := outside.Validate(); err == nil {
		t.Error("out-of-bounds op accepted")
	}

	badCols := testConfig()
	badCols.UsedCols = 3
	if err := badCols.Validate(); err == nil {
		t.Error("inconsistent UsedCols accepted")
	}

	badSeq := testConfig()
	badSeq.Ops[1].Seq = 0
	if err := badSeq.Validate(); err == nil {
		t.Error("non-increasing Seq accepted")
	}
}

func TestConfigCells(t *testing.T) {
	c := testConfig()
	cells := c.Cells()
	// op0: (0,0); op1: (1,0..3); op2: (0,4); op4: (0,5); jump: none.
	want := []Cell{{0, 0}, {0, 4}, {0, 5}, {1, 0}, {1, 1}, {1, 2}, {1, 3}}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells %v, want %d", len(cells), cells, len(want))
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cells[%d] = %v, want %v", i, cells[i], want[i])
		}
	}
	// Cached: second call returns the same slice.
	if &c.Cells()[0] != &cells[0] {
		t.Error("Cells not cached")
	}
}

// TestConfigCellsTable pins Cells' contract on hand-built op lists:
// row-major order, every occupied cell exactly once (ops that overlap a
// cell — as Validate would reject, but Cells must not double-count — or
// repeat it), and width-0 ops (direct jumps) occupying nothing.
func TestConfigCellsTable(t *testing.T) {
	cases := []struct {
		name string
		ops  []PlacedOp
		want []Cell
	}{
		{"no ops", nil, nil},
		{"only width-0 ops", []PlacedOp{{Seq: 0, Width: 0}, {Seq: 1, Row: 1, Col: 3, Width: 0}}, nil},
		{"row-major across rows", []PlacedOp{
			{Seq: 0, Row: 1, Col: 0, Width: 2},
			{Seq: 1, Row: 0, Col: 5, Width: 1},
			{Seq: 2, Row: 0, Col: 1, Width: 1},
		}, []Cell{{0, 1}, {0, 5}, {1, 0}, {1, 1}}},
		{"overlapping spans deduplicated", []PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 3},
			{Seq: 1, Row: 0, Col: 2, Width: 2},
			{Seq: 2, Row: 0, Col: 0, Width: 1},
		}, []Cell{{0, 0}, {0, 1}, {0, 2}, {0, 3}}},
		{"width-0 op between wide ops", []PlacedOp{
			{Seq: 0, Row: 1, Col: 2, Width: 2},
			{Seq: 1, Row: 0, Col: 0, Width: 0},
			{Seq: 2, Row: 0, Col: 3, Width: 1},
		}, []Cell{{0, 3}, {1, 2}, {1, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Config{Geom: NewGeometry(2, 8), Ops: tc.ops}
			got := c.Cells()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Cells() = %v, want %v", got, tc.want)
			}
			if again := c.Cells(); !slices.Equal(again, tc.want) {
				t.Fatalf("second Cells() = %v, want %v", again, tc.want)
			}
		})
	}
}

func TestConfigExecCycles(t *testing.T) {
	c := testConfig()
	if got := c.ExecCycles(); got != 3 {
		t.Errorf("ExecCycles = %d, want 3 (6 columns)", got)
	}
	// Exiting at seq 2: max end col among seq <= 2 is 5 -> 3 cycles.
	if got := c.ExecCyclesTo(2); got != 3 {
		t.Errorf("ExecCyclesTo(2) = %d, want 3", got)
	}
	// Exiting at seq 0: 1 column -> 1 cycle.
	if got := c.ExecCyclesTo(0); got != 1 {
		t.Errorf("ExecCyclesTo(0) = %d, want 1", got)
	}
}
