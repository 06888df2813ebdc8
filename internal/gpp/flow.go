package gpp

import (
	"fmt"

	"agingcgra/internal/isa"
)

// Flow is the recorded control flow of one program execution: the
// direction of every executed conditional branch and the target of every
// executed jalr, in retirement order. Together with the program text this
// fixes the whole retired-instruction stream — PCs, instructions, branch
// directions and next PCs — which is everything the TransRec engine reads
// from execution; register and memory values never steer it. So an
// execution is recorded once and every engine run replays its Flow
// instead of re-executing the program.
//
// A Flow is immutable once Record returns and safe for concurrent use;
// each reader walks it with its own Cursor.
type Flow struct {
	prog  *isa.Program
	start int      // text index execution began at
	n     uint64   // instructions retired, the final ecall included
	taken []uint64 // bit i: direction of the i-th executed conditional branch
	jalr  []int32  // text index each executed jalr jumped to

	// Static tables over the program text. ctl[i] is the index of the
	// first control transfer (branch, jump or ecall) at or after i, so
	// [i, ctl[i]] is straight-line code; target[i] is the text index a
	// branch or jal at i transfers to when taken (-1 when outside the
	// text, or for any other instruction).
	ctl, target []int32
}

// Record runs c to halt, as Run does, and records the execution's control
// flow. The core is left in its final architectural state, so the caller
// can check the result. An execution that does not halt within limit
// instructions, or that leaves the text segment, is an error.
func Record(c *Core, limit uint64) (*Flow, error) {
	p := c.prog
	f := &Flow{prog: p, start: p.IndexOf(c.PC)}
	f.ctl, f.target = controlTables(p)
	branches := 0
	n, err := c.Run(limit, func(r Retire) {
		switch {
		case r.Inst.IsBranch():
			if branches%64 == 0 {
				f.taken = append(f.taken, 0)
			}
			if r.Taken {
				f.taken[branches/64] |= 1 << (branches % 64)
			}
			branches++
		case r.Inst.Op == isa.JALR:
			f.jalr = append(f.jalr, int32(p.IndexOf(r.NextPC)))
		}
	})
	if err != nil {
		return nil, err
	}
	f.n = n
	return f, nil
}

// controlTables builds a program's static control-transfer tables (see
// Flow.ctl and Flow.target).
func controlTables(p *isa.Program) (ctl, target []int32) {
	n := len(p.Text)
	ctl = make([]int32, n)
	target = make([]int32, n)
	next := int32(n)
	for i := n - 1; i >= 0; i-- {
		in := p.Text[i]
		target[i] = -1
		if in.IsControl() || in.Op == isa.ECALL {
			next = int32(i)
			if in.Op != isa.JALR {
				target[i] = int32(p.IndexOf(p.AddrOf(i) + uint32(in.Imm)))
			}
		}
		ctl[i] = next
	}
	return ctl, target
}

// Program returns the program the flow was recorded from.
func (f *Flow) Program() *isa.Program { return f.prog }

// Size returns the recorded flow's payload in bytes: the branch-direction
// bits and the jalr targets, excluding the per-program static tables.
func (f *Flow) Size() int { return 8*len(f.taken) + 4*len(f.jalr) }

// takenAt reports the recorded direction of the i-th executed conditional
// branch.
func (f *Flow) takenAt(i int) bool { return f.taken[i/64]&(1<<(i%64)) != 0 }

// Cursor returns a cursor at the start of the recorded execution.
func (f *Flow) Cursor() Cursor { return Cursor{f: f, idx: f.start} }

// Profile returns, per text index, how often the instruction retired and
// how many of those retirements transferred control (taken branches and
// every jump). It walks the flow a straight-line block at a time through
// the static tables, so its cost is one step per executed control
// transfer, not per instruction.
func (f *Flow) Profile() (retired, taken []uint64) {
	n := len(f.prog.Text)
	starts := make([]uint64, n+1) // block entries at i, minus block exits before i
	taken = make([]uint64, n)
	c := f.Cursor()
	for !c.Halted() {
		end := int(f.ctl[c.idx])
		starts[c.idx]++
		starts[end+1]--
		c.retired += uint64(end - c.idx)
		c.idx = end
		if t, _ := c.advance(); t {
			taken[end]++
		}
	}
	retired = make([]uint64, n)
	var live uint64
	for i := range retired {
		live += starts[i]
		retired[i] = live
	}
	return retired, taken
}

// Cursor walks a Flow, reproducing the retired-instruction stream of the
// recorded execution one instruction at a time without executing it.
type Cursor struct {
	f        *Flow
	idx      int    // text index of the next instruction
	retired  uint64 // instructions walked so far
	branches int    // conditional branches walked so far
	jalrs    int    // jalrs walked so far
}

// Halted reports whether the cursor has walked the whole execution.
func (c *Cursor) Halted() bool { return c.retired == c.f.n }

// PC returns the address of the next instruction.
func (c *Cursor) PC() uint32 { return c.f.prog.AddrOf(c.idx) }

// advance walks the instruction at c.idx and reports whether it
// transferred control and the index of its successor (its own index for
// the halting ecall, whose next PC is its own).
func (c *Cursor) advance() (taken bool, next int) {
	f := c.f
	idx := c.idx
	c.retired++
	next = idx + 1
	if int(f.ctl[idx]) == idx {
		switch in := f.prog.Text[idx]; {
		case in.IsBranch():
			taken = f.takenAt(c.branches)
			c.branches++
			if taken {
				next = int(f.target[idx])
			}
		case in.Op == isa.JAL:
			taken, next = true, int(f.target[idx])
		case in.Op == isa.JALR:
			taken, next = true, int(f.jalr[c.jalrs])
			c.jalrs++
		default: // ecall
			next = idx
		}
	}
	c.idx = next
	return taken, next
}

// Step walks one instruction and reports it exactly as Core.Step reported
// its retirement in the recorded execution. The cursor must not be halted.
func (c *Cursor) Step() Retire {
	p := c.f.prog
	idx := c.idx
	taken, next := c.advance()
	return Retire{PC: p.AddrOf(idx), Index: idx, Inst: p.Text[idx], NextPC: p.AddrOf(next), Taken: taken}
}

// Follow walks a translated instruction sequence: it proceeds while the
// recorded PCs follow pcs, stopping before the first op whose address
// diverges from the recorded control flow and after the first branch whose
// recorded direction differs from dirs (-1 marks non-branches, otherwise
// 0/1 is the expected not-taken/taken outcome). It returns the number of
// instructions walked and whether the walk left the sequence early. This
// is the inner loop of configuration replay.
func (c *Cursor) Follow(pcs []uint32, dirs []int8) (n int, early bool, err error) {
	p := c.f.prog
	for n < len(pcs) {
		if p.AddrOf(c.idx) != pcs[n] {
			return n, true, nil
		}
		if c.Halted() {
			return n, true, fmt.Errorf("gpp: step after halt at pc %#x", pcs[n])
		}
		taken, _ := c.advance()
		n++
		if d := dirs[n-1]; d >= 0 && taken != (d == 1) {
			return n, true, nil
		}
	}
	return n, false, nil
}
