package gpp

import (
	"reflect"
	"strings"
	"testing"

	"agingcgra/internal/isa"
)

// flowProgram exercises every kind of control transfer the cursor walks:
// forward and backward conditional branches in both directions, direct
// calls (jal) and indirect returns (jalr), and the halting ecall.
const flowProgram = `
_start:
	li   a0, 0
	li   s0, 0
outer:
	li   t0, 5
inner:
	andi t1, t0, 1
	beqz t1, even
	addi a0, a0, 3
	j    next
even:
	jal  ra, bump
next:
	addi t0, t0, -1
	bnez t0, inner
	addi s0, s0, 1
	li   t2, 3
	blt  s0, t2, outer
	ecall
bump:
	addi a0, a0, 7
	ret
`

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src, isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// TestRecordIsDeterministic records the same program twice from fresh
// cores: the flows must be identical, and the recording core must end in
// the same architectural state as a plain Run.
func TestRecordIsDeterministic(t *testing.T) {
	p := assemble(t, flowProgram)
	c1, c2 := New(p), New(p)
	f1, err := Record(c1, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Record(c2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("two recordings of one execution differ")
	}
	plain := run(t, flowProgram)
	if c1.Regs != plain.Regs || c1.RetiredCount() != plain.RetiredCount() || !c1.Halted() {
		t.Errorf("recording left regs %v (retired %d), Run leaves %v (retired %d)",
			c1.Regs, c1.RetiredCount(), plain.Regs, plain.RetiredCount())
	}
	if f1.n != plain.RetiredCount() {
		t.Errorf("flow holds %d instructions, execution retired %d", f1.n, plain.RetiredCount())
	}
	if len(f1.jalr) == 0 || len(f1.taken) == 0 {
		t.Errorf("flow recorded %d jalr targets and %d branch words; the program has both", len(f1.jalr), len(f1.taken))
	}
}

// TestCursorReproducesRetireStream walks a recorded flow and compares every
// step with the Retire stream Core.Run reported for the same execution.
func TestCursorReproducesRetireStream(t *testing.T) {
	p := assemble(t, flowProgram)
	var want []Retire
	if _, err := New(p).Run(10_000, func(r Retire) { want = append(want, r) }); err != nil {
		t.Fatal(err)
	}
	f, err := Record(New(p), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cur := f.Cursor()
	var got []Retire
	for !cur.Halted() {
		if pc := cur.PC(); len(got) < len(want) && pc != want[len(got)].PC {
			t.Fatalf("step %d: cursor at pc %#x, execution at %#x", len(got), pc, want[len(got)].PC)
		}
		got = append(got, cur.Step())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor stream diverges from the execution's (%d vs %d retirements)", len(got), len(want))
	}
	if cur.retired != f.n {
		t.Errorf("cursor retired %d, flow holds %d", cur.retired, f.n)
	}

	// The block-level profile must count exactly what the stream retired.
	retired, taken := f.Profile()
	wantRetired := make([]uint64, len(p.Text))
	wantTaken := make([]uint64, len(p.Text))
	for _, r := range want {
		wantRetired[r.Index]++
		if r.Taken {
			wantTaken[r.Index]++
		}
	}
	if !reflect.DeepEqual(retired, wantRetired) || !reflect.DeepEqual(taken, wantTaken) {
		t.Errorf("profile retired %v taken %v, stream says %v and %v", retired, taken, wantRetired, wantTaken)
	}
}

// TestCursorFollowGuidedReplay exercises the replay primitive: full
// sequences, PC divergence and branch-direction divergence, each walked
// from the recorded flow instead of executed.
func TestCursorFollowGuidedReplay(t *testing.T) {
	p := assemble(t, `
_start:
	li   t0, 1
	li   t1, 2
	add  t2, t0, t1
	beq  t0, t1, skip
	add  t3, t2, t0
skip:
	ecall
`)
	f, err := Record(New(p), 100)
	if err != nil {
		t.Fatal(err)
	}
	pcAt := func(i int) uint32 { return p.AddrOf(i) }

	// Full straight-line replay: four ops, branch not taken as expected.
	cur := f.Cursor()
	pcs := []uint32{pcAt(0), pcAt(1), pcAt(2), pcAt(3)}
	dirs := []int8{-1, -1, -1, 0}
	n, early, err := cur.Follow(pcs, dirs)
	if err != nil || n != 4 || early {
		t.Fatalf("straight-line replay: n=%d early=%v err=%v", n, early, err)
	}
	if cur.PC() != pcAt(4) {
		t.Errorf("cursor at %#x after the not-taken branch, want %#x", cur.PC(), pcAt(4))
	}

	// Branch-direction divergence: expect taken, recorded not-taken. The
	// branch is walked (counted) and the replay reports an early exit.
	cur = f.Cursor()
	dirs = []int8{-1, -1, -1, 1}
	n, early, err = cur.Follow(pcs, dirs)
	if err != nil || n != 4 || !early {
		t.Fatalf("diverging branch: n=%d early=%v err=%v", n, early, err)
	}

	// PC divergence: the sequence expects an op the control flow never
	// reaches; nothing past the divergence is walked.
	cur = f.Cursor()
	pcs = []uint32{pcAt(0), pcAt(2)}
	dirs = []int8{-1, -1}
	n, early, err = cur.Follow(pcs, dirs)
	if err != nil || n != 1 || !early {
		t.Fatalf("pc divergence: n=%d early=%v err=%v", n, early, err)
	}
	if cur.retired != 1 {
		t.Errorf("retired = %d, want 1", cur.retired)
	}

	// A sequence running past the halting ecall fails like a step after
	// halt.
	cur = f.Cursor()
	for !cur.Halted() {
		cur.Step()
	}
	if _, _, err := cur.Follow([]uint32{pcAt(5)}, []int8{-1}); err == nil {
		t.Error("following past the halt should fail")
	}
}

// TestRecordSurfacesExecutionErrors pins that an execution with no valid
// flow is refused at record time: the instruction limit and a jump out of
// the text segment.
func TestRecordSurfacesExecutionErrors(t *testing.T) {
	if _, err := Record(New(assemble(t, "loop: j loop")), 1000); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("want limit error, got %v", err)
	}
	p := assemble(t, `
		li   t0, 0x40
		jalr ra, 0(t0)
		ecall
	`)
	if _, err := Record(New(p), 1000); err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("want out-of-text error, got %v", err)
	}
}
