package lifetime

import (
	"bytes"
	"encoding/json"
	"testing"

	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	recov "agingcgra/internal/recover"
)

// batch is a small heterogeneous scenario batch: two geometries × four
// allocators, single-kernel mixes at tiny scale. The explorer scenarios
// exercise the wear-feedback path (no epoch memoization while wear evolves),
// so the batch covers both the replayed and the re-simulated timelines. The
// remap scenarios additionally inject a clustered failure under stale
// translations, so the shape-search path (and its health-keyed remap
// cache) is on the deterministic clock too, and the shaped scenarios
// put the translation-time ladder search (with its state-keyed translation
// cache) under the same serial==parallel == -race contract.
func batch() []Scenario {
	mk := func(rows, cols int, f dse.AllocatorFactory, bench string) Scenario {
		return Scenario{
			Geom:       fabric.NewGeometry(rows, cols),
			Factory:    f,
			Mix:        []string{bench},
			EpochYears: 0.5,
			MaxYears:   5,
		}
	}
	clustered := func(rows, cols int, f dse.AllocatorFactory, bench, pattern string) Scenario {
		sc := mk(rows, cols, f, bench)
		cells, err := fabric.PatternCells(pattern, sc.Geom)
		if err != nil {
			panic(err)
		}
		sc.InitialDead = cells
		sc.Engine.StaleTranslations = true
		return sc
	}
	faulty := func(rows, cols int, f dse.AllocatorFactory, bench string, failStop bool) Scenario {
		sc := mk(rows, cols, f, bench)
		sc.MaxYears = 8
		sc.Seed = 99
		sc.FaultModel = &FaultModel{IntermittentAt: 0.5, MaxProb: 0.05}
		sc.Recovery = &recov.Policy{CheckEvery: 2, FailStop: failStop}
		return sc
	}
	shaped := func(rows, cols int, f dse.AllocatorFactory, bench, pattern string) Scenario {
		sc := mk(rows, cols, f, bench)
		if pattern != "" {
			cells, err := fabric.PatternCells(pattern, sc.Geom)
			if err != nil {
				panic(err)
			}
			sc.InitialDead = cells
		}
		sc.Engine.ShapeTranslations = true
		return sc
	}
	return []Scenario{
		mk(2, 16, dse.BaselineFactory, "crc32"),
		mk(2, 16, dse.ProposedFactory, "crc32"),
		mk(2, 16, dse.ExploreFactory, "crc32"),
		mk(2, 16, dse.RemapFactory, "crc32"),
		mk(4, 8, dse.BaselineFactory, "bitcount"),
		mk(4, 8, dse.ProposedFactory, "bitcount"),
		mk(4, 8, dse.ExploreFactory, "bitcount"),
		clustered(2, 16, dse.RemapFactory, "crc32", "columns:0+8"),
		clustered(2, 16, dse.RemapFactory, "crc32", "survivor-row:1"),
		clustered(4, 8, dse.RemapFactory, "bitcount", "quadrant"),
		shaped(2, 16, dse.ExploreFactory, "crc32", "columns:0+8"),
		shaped(2, 16, dse.RemapFactory, "crc32", "columns:0+8"),
		shaped(4, 8, dse.ExploreFactory, "bitcount", ""),
		// Fault-enabled scenarios put the per-(epoch, cell) keyed fault
		// draws, the checker/retry path and the quarantine/probation state
		// machine under the same serial==parallel==-race contract.
		faulty(2, 16, dse.BaselineFactory, "crc32", false),
		faulty(2, 16, dse.ProposedFactory, "crc32", true),
		faulty(4, 8, dse.RemapFactory, "bitcount", false),
	}
}

// TestSerialParallelTimelinesByteIdentical extends the dse parallel==serial
// pattern to the lifetime engine: a scenario batch fanned over the worker
// pool must produce byte-identical JSON timelines to the serial path. CI
// runs this package under -race.
func TestSerialParallelTimelinesByteIdentical(t *testing.T) {
	serial, err := RunScenarios(batch(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScenarios(batch(), 4)
	if err != nil {
		t.Fatal(err)
	}

	sj, err := json.MarshalIndent(serial, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.MarshalIndent(parallel, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel timelines differ:\nserial:\n%s\nparallel:\n%s", sj, pj)
	}
}

// TestRepeatedRunsByteIdentical pins run-to-run determinism of a single
// scenario (fresh caches, same bytes).
func TestRepeatedRunsByteIdentical(t *testing.T) {
	sc := batch()[1]
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(batch()[1])
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("repeated runs differ:\n%s\n%s", aj, bj)
	}
}

// noMemo is the memo-off oracle's epoch memo: every lookup re-simulates.
type noMemo struct{}

func (noMemo) GetOrCompute(_ any, compute func() (any, error)) (any, error) { return compute() }

// runMemoOff runs a scenario with the run-local epoch memo switched off.
func runMemoOff(sc Scenario) (*Result, error) {
	saved := newRunMemo
	newRunMemo = func() epochMemo { return noMemo{} }
	defer func() { newRunMemo = saved }()
	return Run(sc)
}

// TestMemoOnEqualsMemoOff pins epoch replay as a pure optimization: every
// fault-free scenario of the batch yields the same Result with the
// run-local memo as with every epoch re-simulated, once the Replayed marks
// (which only the memo sets) are cleared. Fault/recovery scenarios are
// excluded by design: there replay is the documented steady-state
// approximation that re-uses the memoized epoch's fault draws.
func TestMemoOnEqualsMemoOff(t *testing.T) {
	marshal := func(r *Result) []byte {
		for i := range r.Timeline {
			r.Timeline[i].Replayed = false
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	compared, replayed := 0, 0
	for i, sc := range batch() {
		if sc.FaultModel != nil || sc.Recovery != nil {
			continue
		}
		on, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range on.Timeline {
			if rec.Replayed {
				replayed++
			}
		}
		off, err := runMemoOff(sc)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := marshal(on), marshal(off); !bytes.Equal(a, b) {
			t.Fatalf("scenario %d (%s): memo-on differs from memo-off:\non:  %s\noff: %s", i, on.Name, a, b)
		}
		compared++
	}
	if compared == 0 || replayed == 0 {
		t.Fatalf("oracle is vacuous: %d scenarios compared, %d epochs replayed", compared, replayed)
	}
}
