package explore

import (
	"math"
	"runtime"
	"testing"

	"agingcgra/internal/aging"
	"agingcgra/internal/fabric"
	"agingcgra/internal/searchcost"
)

// refState is the brute-force reference of the incremental projection: it
// mirrors every ObserveStress into its own stress table and recomputes the
// projection from the live fabric.Wear map on every query — exactly what
// the pre-incremental explorer did per scan.
type refState struct {
	geom    fabric.Geometry
	model   aging.Model
	horizon float64
	wear    *fabric.Wear
	stress  []uint64
	active  uint64
}

func newRefState(g fabric.Geometry, w *fabric.Wear) *refState {
	return &refState{
		geom:    g,
		model:   aging.NewModel(),
		horizon: 1,
		wear:    w,
		stress:  make([]uint64, g.NumFUs()),
	}
}

func (r *refState) observe(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	for _, c := range cells {
		p := off.Apply(c, r.geom)
		r.stress[p.Row*r.geom.Cols+p.Col] += cycles
	}
	r.active += cycles
}

// score is the reference objective: max over the footprint of
// ΔVt(wearYears + stress·horizon/active), evaluated per cell from scratch.
func (r *refState) score(cfg *fabric.Config, off fabric.Offset) float64 {
	k := 0.0
	if r.active > 0 {
		k = r.horizon / float64(r.active)
	}
	maxVt := 0.0
	for _, c := range cfg.Cells() {
		p := off.Apply(c, r.geom)
		y := r.wear.YearsAt(p) + float64(r.stress[p.Row*r.geom.Cols+p.Col])*k
		if vt := r.model.Cond.DeltaVt(y, 1); vt > maxVt {
			maxVt = vt
		}
	}
	return maxVt
}

// TestIncrementalProjectionMatchesFullRecompute drives the explorer through
// random interleavings of committed executions, hard deaths, probation
// revives (the recovery layer's observed-health flow) and cross-epoch wear
// advances, and pins after every step that the incrementally maintained
// projection scores exactly what a full per-cell recompute from the live
// maps produces — and that Explore's argmin is never beaten by any live
// pivot under the reference objective.
func TestIncrementalProjectionMatchesFullRecompute(t *testing.T) {
	g := fabric.NewGeometry(4, 8)
	cfg := testConfig(g)
	state := uint32(0xbeef01)
	for trial := 0; trial < 5; trial++ {
		h := fabric.NewHealth(g)
		w := fabric.NewWear(g)
		e := New(g)
		e.SetHealth(h)
		e.SetWear(w)
		ref := newRefState(g, w)

		for step := 0; step < 300; step++ {
			cell := fabric.Cell{
				Row: int(xorshift(&state)) % g.Rows,
				Col: int(xorshift(&state)) % g.Cols,
			}
			switch xorshift(&state) % 8 {
			case 0, 1, 2, 3: // committed execution at a random pivot
				off := fabric.Offset{Row: cell.Row, Col: cell.Col}
				cycles := uint64(xorshift(&state)%500 + 1)
				e.ObserveStress(cfg.Cells(), off, cycles)
				ref.observe(cfg.Cells(), off, cycles)
			case 4: // hard death
				h.Kill(cell)
			case 5: // probation revive (observed-health flow)
				if dead := h.DeadCells(); len(dead) > 0 {
					h.Revive(dead[int(xorshift(&state))%len(dead)])
				}
			default: // cross-epoch wear advance, re-attached as a new epoch would
				w.Add(cell, float64(xorshift(&state)%1000)/4000.0)
				e.SetWear(w)
			}

			// Score equality at a random pivot: incremental == recompute.
			off := fabric.Offset{
				Row: int(xorshift(&state)) % g.Rows,
				Col: int(xorshift(&state)) % g.Cols,
			}
			got := e.ProjectedScore(cfg, off)
			want := ref.score(cfg, off)
			if math.Abs(got-want) > 1e-15*(1+math.Abs(want)) {
				t.Fatalf("trial %d step %d: incremental score %.18g != recompute %.18g at %v",
					trial, step, got, want, off)
			}

			if step%25 != 0 {
				continue
			}
			// Argmin optimality under the reference objective: no live
			// pivot beats the explorer's choice.
			chosen := e.Explore(cfg)
			if !h.PlacementOK(cfg.Cells(), chosen) && anyLivePlacement(h, cfg, g) {
				t.Fatalf("trial %d step %d: Explore chose dead placement %v with live pivots available",
					trial, step, chosen)
			}
			if h.PlacementOK(cfg.Cells(), chosen) {
				chosenScore := ref.score(cfg, chosen)
				for r := 0; r < g.Rows; r++ {
					for c := 0; c < g.Cols; c++ {
						off := fabric.Offset{Row: r, Col: c}
						if !h.PlacementOK(cfg.Cells(), off) {
							continue
						}
						if s := ref.score(cfg, off); s < chosenScore-1e-15*(1+chosenScore) {
							t.Fatalf("trial %d step %d: pivot %v scores %.18g, beats chosen %v at %.18g",
								trial, step, off, s, chosen, chosenScore)
						}
					}
				}
			}
		}
	}
}

// TestParallelScanMatchesSerial drives an explorer through one history
// twice — once under GOMAXPROCS 1 (serial scans), once under GOMAXPROCS 4
// (scans striped over four workers) — on a fabric large enough to cross
// the parallel threshold, with clustered failure blobs, and pins that
// every exploration returns the same pivot and that the searchcost
// counters match exactly: the counted work models the hardware scan, so
// striping must not change it.
func TestParallelScanMatchesSerial(t *testing.T) {
	g := fabric.NewGeometry(8, 16) // 128 pivots >= minParallelPivots
	cfg := testConfig(g)
	run := func(procs int) ([]fabric.Offset, searchcost.Counts) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := New(g)
		h := fabric.NewHealth(g)
		w := fabric.NewWear(g)
		e.SetHealth(h)
		e.SetWear(w)
		var offs []fabric.Offset
		state := uint32(0xfeed02)
		for step := 0; step < 400; step++ {
			cell := fabric.Cell{
				Row: int(xorshift(&state)) % g.Rows,
				Col: int(xorshift(&state)) % g.Cols,
			}
			switch xorshift(&state) % 8 {
			case 0, 1, 2, 3, 4:
				off := fabric.Offset{Row: cell.Row, Col: cell.Col}
				e.ObserveStress(cfg.Cells(), off, uint64(xorshift(&state)%300+1))
			case 5: // clustered failure: kill a 2x2 blob
				for dr := 0; dr < 2; dr++ {
					for dc := 0; dc < 2; dc++ {
						h.Kill(fabric.Cell{Row: (cell.Row + dr) % g.Rows, Col: (cell.Col + dc) % g.Cols})
					}
				}
			default:
				w.Add(cell, float64(xorshift(&state)%1000)/4000.0)
				e.SetWear(w)
			}
			offs = append(offs, e.Explore(cfg))
		}
		return offs, e.SearchCounts()
	}
	offsS, cs := run(1)
	offsP, cp := run(4)
	for step := range offsS {
		if offsS[step] != offsP[step] {
			t.Fatalf("step %d: serial chose %v, parallel chose %v", step, offsS[step], offsP[step])
		}
	}
	if cs != cp {
		t.Fatalf("searchcost counts diverge:\nserial:   %+v\nparallel: %+v", cs, cp)
	}
}
