package remap

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"agingcgra/internal/cfgcache"
	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
	"agingcgra/internal/searchcost"
)

// unmemoizedSearch is a test-local reference for search: the same serial
// (shape × anchor) scan with one mapper.Map per candidate and no memo,
// counted and reduced by the same rules.
func unmemoizedSearch(m *Remapper, cfg *fabric.Config) cfgcache.RemapEntry {
	minOps := m.minOps
	if n := len(cfg.Ops); n < minOps {
		minOps = n
	}
	m.counts.RemapScans++
	m.counts.RemapProjections += uint64(m.geom.NumFUs())
	trace := Trace(cfg)
	best := cfgcache.RemapEntry{}
	bestConsumed, bestScore := 0, 0.0
	for _, shape := range m.shapes {
		if shape.Rows > m.geom.Rows || shape.Cols > m.geom.Cols {
			continue
		}
		for a := 0; a < m.geom.NumFUs(); a++ {
			m.counts.RemapCandidates++
			anchor := fabric.Offset{Row: a / m.geom.Cols, Col: a % m.geom.Cols}
			mc, consumed := mapper.Map(trace, mapper.Options{
				Geom: shape,
				Lat:  fabric.DefaultLatencies(),
				Disabled: func(c fabric.Cell) bool {
					return m.health.Dead(anchor.Apply(c, m.geom))
				},
				Probes: &m.counts.RemapProbes,
			})
			if mc == nil || consumed < minOps || !m.health.PlacementOK(mc.Cells(), anchor) {
				continue
			}
			m.counts.RemapCells += uint64(len(mc.Cells()))
			score := m.ex.ProjectedScore(mc, anchor)
			if !best.OK || consumed > bestConsumed || (consumed == bestConsumed && score < bestScore) {
				best = cfgcache.RemapEntry{Cfg: mc, Off: anchor, OK: true}
				bestConsumed, bestScore = consumed, score
			}
		}
	}
	return best
}

// randomDead draws one health mask for the differential test. Trials
// alternate between structured failures, whose anchors often see the same
// dead mask over a shape (memo hits), and unstructured random masks, whose
// anchors mostly do not.
func randomDead(rng *rand.Rand, g fabric.Geometry, trial int) []fabric.Cell {
	switch trial % 4 {
	case 0:
		return fabric.DeadColumnCells(g, rng.Intn(g.Cols))
	case 1:
		return []fabric.Cell{{Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}}
	case 2:
		return fabric.DeadQuadrantCells(g)
	}
	var dead []fabric.Cell
	deadFrac := rng.Float64() * 0.5
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if rng.Float64() < deadFrac {
				dead = append(dead, fabric.Cell{Row: r, Col: c})
			}
		}
	}
	if len(dead) == 0 {
		dead = append(dead, fabric.Cell{})
	}
	return dead
}

// TestSearchMatchesUnmemoizedScan is the differential pin of the rescue
// scan's mapping memo: over random health masks and wear maps on two
// geometries, under GOMAXPROCS 1 and 4, search returns the same placement
// and adds byte-identical searchcost Counts as the unmemoized reference.
func TestSearchMatchesUnmemoizedScan(t *testing.T) {
	traces := map[string][]mapper.TraceEntry{
		"independent": independentALUs(32),
		"chain":       dependentALUs(8),
		"loads":       loads(4),
	}
	geoms := []fabric.Geometry{fabric.NewGeometry(2, 16), fabric.NewGeometry(4, 8)}
	rng := rand.New(rand.NewSource(12))
	for _, g := range geoms {
		for _, name := range []string{"independent", "chain", "loads"} {
			cfg, n := mapper.Map(traces[name], mapper.Options{Geom: g, Lat: fabric.DefaultLatencies()})
			if cfg == nil || n < 3 {
				t.Fatalf("%v/%s: healthy mapping consumed %d ops", g, name, n)
			}
			for trial := 0; trial < 8; trial++ {
				dead := randomDead(rng, g, trial)
				wearYears := make([]float64, g.NumFUs())
				for i := range wearYears {
					wearYears[i] = 4 * rng.Float64()
				}
				setup := func() *Remapper {
					h, err := fabric.NewHealthWithDead(g, dead)
					if err != nil {
						t.Fatal(err)
					}
					w := fabric.NewWear(g)
					for i, y := range wearYears {
						w.Add(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, y)
					}
					m := New(g)
					m.SetHealth(h)
					m.SetWear(w)
					return m
				}
				ref := setup()
				want := unmemoizedSearch(ref, cfg)
				// GOMAXPROCS n stripes the scan over n workers.
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%v/%s/%d/workers=%d", g, name, trial, workers), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
						m := setup()
						got := m.search(cfg)
						if got.OK != want.OK || got.Off != want.Off {
							t.Fatalf("entry (ok=%v off=%v), reference (ok=%v off=%v)",
								got.OK, got.Off, want.OK, want.Off)
						}
						if got.OK && (got.Cfg.Geom != want.Cfg.Geom || got.Cfg.StartPC != want.Cfg.StartPC ||
							got.Cfg.UsedCols != want.Cfg.UsedCols || !reflect.DeepEqual(got.Cfg.Ops, want.Cfg.Ops)) {
							t.Fatalf("configuration diverges from the reference:\n got %v %+v\nwant %v %+v",
								got.Cfg.Geom, got.Cfg.Ops, want.Cfg.Geom, want.Cfg.Ops)
						}
						if gc, wc := m.SearchCounts(), ref.SearchCounts(); gc != wc {
							t.Fatalf("searchcost counts diverge:\n got %+v\nwant %+v", gc, wc)
						}
					})
				}
			}
		}
	}
}

// BenchmarkRemapRescue times one capacity rescue scan: a full-length
// configuration translated on the pristine 2×16 fabric, blocked at every
// pivot by a dead column, re-mapped over the default shape ladder at every
// anchor.
func BenchmarkRemapRescue(b *testing.B) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(b, independentALUs(32), g)
	h, err := fabric.NewHealthWithDead(g, fabric.DeadColumnCells(g, 8))
	if err != nil {
		b.Fatal(err)
	}
	m := New(g)
	m.SetHealth(h)
	m.SetWear(fabric.NewWear(g))
	for a := 0; a < g.NumFUs(); a++ {
		if h.PlacementOK(cfg.Cells(), fabric.Offset{Row: a / g.Cols, Col: a % g.Cols}) {
			b.Fatal("configuration has a live pivot")
		}
	}
	var before searchcost.Counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before = m.SearchCounts()
		if e := m.search(cfg); !e.OK {
			b.Fatal("rescue found no placement")
		}
	}
	b.ReportMetric(float64(m.SearchCounts().Sub(before).RemapCandidates), "candidates/op")
}
