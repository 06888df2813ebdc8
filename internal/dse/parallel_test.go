package dse

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"agingcgra/internal/dbt"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// testOptions keeps parallel-equality runs fast: a suite subset at Tiny.
func testOptions(workers int) Options {
	return Options{
		Size:       prog.Tiny,
		Benchmarks: []string{"crc32", "bitcount", "stringsearch"},
		Workers:    workers,
	}
}

// TestSweepParallelMatchesSerial asserts the worker-pool sweep produces
// results identical to the serial path, point for point: same ordering,
// same cycle counts, same utilization maps.
func TestSweepParallelMatchesSerial(t *testing.T) {
	points := []GridPoint{{2, 8}, {4, 8}, {2, 16}, {4, 16}}

	serial, err := Sweep(points, ProposedFactory, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(points, ProposedFactory, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: serial %d parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d (%v) diverges between serial and parallel sweeps", i, serial[i].Geom)
		}
	}
}

// TestRunPointsMixedFactories covers the geometry × allocator fan-out shape
// the experiment drivers use (same geometry, both allocators).
func TestRunPointsMixedFactories(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	points := []Point{
		{Geom: g, Factory: BaselineFactory},
		{Geom: g, Factory: ProposedFactory},
	}
	serial, err := RunPoints(points, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunPoints(points, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d diverges between serial and parallel runs", i)
		}
	}
	if serial[0].AllocatorName == serial[1].AllocatorName {
		t.Errorf("expected distinct allocators per point, both %q", serial[0].AllocatorName)
	}
}

// TestRefCacheMatchesDirect asserts the memoized GPP reference equals a
// direct RunSuite without a cache, that repeated Gets are stable, and that
// the cycles, classes and checksum the reference derives from its recorded
// flow equal a direct dbt.RunGPPOnly execution for every kernel, under the
// default timing and a non-default one.
func TestRefCacheMatchesDirect(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	opt := testOptions(1)

	direct, err := RunSuite(g, BaselineFactory, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Refs = NewRefCache()
	memoized, err := RunSuite(g, BaselineFactory, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, memoized) {
		t.Errorf("memoized suite result diverges from direct computation")
	}

	b, _ := prog.ByName("crc32")
	r1, err := opt.Refs.Get(b, prog.Tiny, gpp.Timing{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := opt.Refs.Get(b, prog.Tiny, gpp.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("zero timing should normalize to the default: %+v vs %+v", r1, r2)
	}

	slow := gpp.DefaultTiming()
	slow.Load, slow.TakenRedirect, slow.Mispredict = 7, 5, 11
	for _, timing := range []gpp.Timing{gpp.DefaultTiming(), slow} {
		for _, b := range prog.All() {
			ref, err := opt.Refs.Get(b, prog.Tiny, timing)
			if err != nil {
				t.Fatal(err)
			}
			c, err := b.NewCore(prog.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			cycles, classes, err := dbt.RunGPPOnly(c, timing, b.MaxInstructions)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Cycles != cycles || ref.Classes != classes {
				t.Errorf("%s: flow-derived reference %d cycles %v, execution %d cycles %v",
					b.Name, ref.Cycles, ref.Classes, cycles, classes)
			}
			if ref.Checksum != c.Regs[isa.A0] {
				t.Errorf("%s: reference checksum %#x, execution %#x", b.Name, ref.Checksum, c.Regs[isa.A0])
			}
			c.Release()
		}
	}
}

// TestSmallSuiteFlowsAreCompact pins the memory cost of recording: the
// control flows of the ten Small kernels, which every RefCache serving a
// Small sweep holds, stay within 128 KiB (about 61 KiB today).
func TestSmallSuiteFlowsAreCompact(t *testing.T) {
	refs := NewRefCache()
	total := 0
	for _, b := range prog.All() {
		ref, err := refs.Get(b, prog.Small, gpp.Timing{})
		if err != nil {
			t.Fatal(err)
		}
		total += ref.Flow.Size()
	}
	if total > 128<<10 {
		t.Errorf("Small suite flows take %d bytes, want at most 128 KiB", total)
	}
}

// TestForEachRecoversPanics pins the sweep primitive's panic safety: a
// panicking work item becomes that index's error on the serial and the
// parallel path alike — one malformed design point must not crash a batch.
func TestForEachRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		done := make(map[int]bool)
		err := ForEach(8, workers, func(i int) error {
			if i == 3 {
				panic("design point exploded")
			}
			mu.Lock()
			done[i] = true
			mu.Unlock()
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic should surface as an error", workers)
		}
		if !strings.Contains(err.Error(), "work item 3 panicked") {
			t.Errorf("workers=%d: error should name the panicking index, got: %v", workers, err)
		}
		if workers > 1 {
			// Parallel path drives every other item to completion.
			for i := 0; i < 8; i++ {
				if i != 3 && !done[i] {
					t.Errorf("workers=%d: item %d not driven to completion", workers, i)
				}
			}
		}
	}
}

// TestForEachDefaultWorkersFollowsGOMAXPROCS pins the Workers=0 default to
// runtime.GOMAXPROCS(0), not NumCPU: on a single-slot schedule the default
// must take the serial loop — in-order, on the caller's goroutine — rather
// than spawn NumCPU goroutines that time-slice one core and lose to the
// serial sweep (the Fig6Sweep parallel-slower artifact).
func TestForEachDefaultWorkersFollowsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	// Deliberately unsynchronized: legal only if ForEach stays serial.
	// Under `go test -race` this doubles as a no-goroutines proof.
	var order []int
	if err := ForEach(64, 0, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d of 64 items", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order execution at %d: got item %d; Workers=0 on GOMAXPROCS=1 must run serial", i, got)
		}
	}
}
