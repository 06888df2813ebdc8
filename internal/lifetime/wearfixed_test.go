package lifetime

import (
	"slices"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
)

// wearSpy wraps the wear-aware explorer and checks the contract its wear
// consumers rely on: the map handed to SetWear does not change while the
// allocator is alive. It snapshots the years on SetWear and compares the
// live map against the snapshot on every proposal and commit.
type wearSpy struct {
	*explore.Explorer
	log  *wearLog
	wear *fabric.Wear
	snap []float64
}

// wearLog collects the spies' checks across one scenario's epochs.
type wearLog struct {
	checks     int
	violations int
	maxYears   float64 // the largest wear any spy was handed
}

func (s *wearSpy) SetWear(w *fabric.Wear) {
	s.Explorer.SetWear(w)
	s.wear = w
	s.snap = w.CopyYears(nil)
	if y, _ := w.Max(); y > s.log.maxYears {
		s.log.maxYears = y
	}
}

func (s *wearSpy) check() {
	if s.wear == nil {
		return
	}
	s.log.checks++
	if !slices.Equal(s.wear.CopyYears(nil), s.snap) {
		s.log.violations++
	}
}

func (s *wearSpy) Next(cfg *fabric.Config) fabric.Offset {
	s.check()
	return s.Explorer.Next(cfg)
}

func (s *wearSpy) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	s.check()
	s.Explorer.ObserveStress(cells, off, cycles)
}

// TestWearFixedWhileAllocatorLives pins the invariant that lets the
// explorer, the remapper, the configuration caches and the DBT engine read
// wear once instead of tracking its changes: lifetime.Run adds wear only
// between epochs, and every epoch builds a fresh allocator, so no wear
// consumer ever sees the map move. The scenarios cover translation-time
// shape search, a stale-translation dead column and fault injection with
// recovery.
func TestWearFixedWhileAllocatorLives(t *testing.T) {
	shape := beScenario(nil, 3)
	shape.Engine.ShapeTranslations = true
	faults := faultScenario()
	faults.MaxYears = 4
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"shape-translation", shape},
		{"dead-column", clusteredScenario(nil, "dead-column:5", 3)},
		{"fault-recovery", faults},
	} {
		sc := tc.sc
		t.Run(tc.name, func(t *testing.T) {
			log := &wearLog{}
			sc.Factory = func(g fabric.Geometry) alloc.Allocator {
				return &wearSpy{Explorer: explore.New(g), log: log}
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			simulated := 0
			for _, rec := range res.Timeline {
				if !rec.Replayed {
					simulated++
				}
			}
			if log.violations > 0 {
				t.Fatalf("wear moved under a live allocator on %d of %d checks", log.violations, log.checks)
			}
			// Guard against a vacuous pass: several epochs co-simulated
			// with the spy attached, and wear had built up by the time a
			// later epoch's allocator received it.
			if simulated < 2 || log.checks == 0 || log.maxYears == 0 {
				t.Fatalf("contract not exercised: %d simulated epochs, %d checks, max wear %v",
					simulated, log.checks, log.maxYears)
			}
		})
	}
}
