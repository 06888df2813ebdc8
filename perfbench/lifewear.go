package main

import (
	"fmt"
	"time"

	"agingcgra"
	"agingcgra/internal/dse"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/prog"
	"agingcgra/internal/trace"
)

// lifeWear is the life-wear workload: one cgra-lifetime-style batch of six
// scenarios through agingcgra.RunLifetimes.
type lifeWear struct {
	configs []agingcgra.LifetimeConfig
	workers int
}

func (w *lifeWear) kernels() ([]string, prog.Size) { return lifeWearMix, prog.Tiny }

// setup resolves the batch, assembles its kernels and computes their GPP
// references cold.
func (w *lifeWear) setup(r *run) error {
	w.configs = lifeWearConfigs(r.seed)
	w.workers = loadWorkers()
	for _, c := range w.configs {
		sc, err := c.Scenario()
		if err != nil {
			return err
		}
		// Traced passes wrap the allocator; refuse up front an allocator
		// the wrapper cannot forward exactly.
		if _, err := wrapTimed(sc.Factory(sc.Geom), &scanClock{}); err != nil {
			return err
		}
	}
	names, size := w.kernels()
	return coldReferences(names, size)
}

// coldReferences assembles every kernel and runs its stand-alone GPP
// reference through a fresh dse.RefCache.
func coldReferences(names []string, size prog.Size) error {
	refs := dse.NewRefCache()
	for _, name := range names {
		b, ok := prog.ByName(name)
		if !ok {
			return fmt.Errorf("unknown kernel %q", name)
		}
		if _, err := refs.Get(b, size, gppTiming); err != nil {
			return err
		}
	}
	return nil
}

func (w *lifeWear) close() {}

// pass runs the batch once, untraced, and returns its Results.
func (w *lifeWear) pass() ([]*agingcgra.LifetimeResult, error) {
	return agingcgra.RunLifetimes(w.configs, w.workers)
}

// epochClock is one scenario's trace sink: it timestamps every epoch
// event, splitting the host time between consecutive epochs into
// simulated and memo-replayed epochs.
type epochClock struct {
	last                    time.Time
	simNs, replayNs         int64
	simEpochs, replayEpochs int64
}

func (c *epochClock) start() {
	if c.last.IsZero() {
		c.last = time.Now()
	}
}

func (c *epochClock) Emit(ev trace.Event) {
	if ev.Kind != trace.KindEpoch {
		return
	}
	now := time.Now()
	d := now.Sub(c.last).Nanoseconds()
	c.last = now
	if ev.Replayed {
		c.replayNs += d
		c.replayEpochs++
	} else {
		c.simNs += d
		c.simEpochs++
	}
}

// lifeWearLayers accumulates the traced passes' layer timings.
type lifeWearLayers struct {
	scan   scanClock
	epochs []*epochClock
}

// tracedPass runs the same batch through the lifetime.Scenario seams the
// facade resolves to, with a timing wrapper around each allocator factory
// and an epoch clock as the trace sink. The Results must be byte-identical
// to an untraced pass.
func (w *lifeWear) tracedPass(layers *lifeWearLayers) ([]*lifetime.Result, error) {
	scs := make([]lifetime.Scenario, len(w.configs))
	for i, c := range w.configs {
		sc, err := c.Scenario()
		if err != nil {
			return nil, err
		}
		clock := &epochClock{}
		layers.epochs = append(layers.epochs, clock)
		sc.Factory = timedFactory(sc.Factory, &layers.scan, clock.start)
		sc.Trace = clock
		scs[i] = sc
	}
	return lifetime.RunScenarios(scs, w.workers)
}

// checkLifeWear applies the semantic checks that hold for every seed.
func checkLifeWear(r *run, res []*agingcgra.LifetimeResult, configs []agingcgra.LifetimeConfig) {
	if len(res) != len(configs) {
		r.fail("life-wear: %d results for %d scenarios", len(res), len(configs))
		return
	}
	for i, x := range res {
		c := configs[i]
		if x.Name != c.Name {
			r.fail("life-wear: result %d is %q, want %q", i, x.Name, c.Name)
		}
		if want := int(c.MaxYears/c.EpochYears + 0.5); len(x.Timeline) != want {
			r.fail("life-wear %s: %d epochs, want %d", x.Name, len(x.Timeline), want)
		}
		if (c.Recovery != nil) != (x.Recovery != nil) {
			r.fail("life-wear %s: recovery report presence mismatch", x.Name)
		}
		if x.Recovery != nil && x.Recovery.Stats.SilentEscapes != 0 {
			r.fail("life-wear %s: %d silent escapes with every offload checked", x.Name, x.Recovery.Stats.SilentEscapes)
		}
		if c.DeadPattern != "" && x.AliveFraction > 30.0/32 {
			r.fail("life-wear %s: alive fraction %.3f with a dead column", x.Name, x.AliveFraction)
		}
	}
}

// lifeWearExact derives the exact per-layer counters from a batch's
// Results.
func lifeWearExact(res []*agingcgra.LifetimeResult) (simulated, total, pivotCells, remapCands, ladderCands, checkerRuns, retries uint64) {
	for _, x := range res {
		for _, e := range x.Timeline {
			total++
			if !e.Replayed {
				simulated++
			}
		}
		if x.Search != nil {
			c := x.Search.Counts
			pivotCells += c.PivotCells
			remapCands += c.RemapCandidates
			ladderCands += c.LadderCandidates
			checkerRuns += c.CheckerRuns
		}
		if x.Recovery != nil {
			retries += x.Recovery.Stats.Retries
		}
	}
	return
}

func (w *lifeWear) measure(r *run) error {
	ref, err := w.pass()
	if err != nil {
		return err
	}
	checkLifeWear(r, ref, w.configs)
	// want is the Result digest every later pass must reproduce.
	want, err := digestJSON(ref)
	if err != nil {
		return err
	}
	r.checkGolden("life-wear results", want)
	sim, total, pivot, remapC, ladderC, checks, retries := lifeWearExact(ref)

	passOK := func(res []*agingcgra.LifetimeResult, err error, what string) bool {
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("life-wear %s: %v", what, err)
			return false
		}
		if d, _ := digestJSON(res); d != want {
			r.failed++
			r.fail("life-wear %s: results digest %s, want %s", what, d, want)
			return false
		}
		return true
	}

	var untraced, traced []float64
	layers := &lifeWearLayers{}
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		var res []*agingcgra.LifetimeResult
		d, err := timeIt(func() (err error) { res, err = w.pass(); return })
		if passOK(res, err, "pass") {
			untraced = append(untraced, d)
		}
		if !r.trace {
			continue
		}
		var tres []*lifetime.Result
		d, err = timeIt(func() (err error) { tres, err = w.tracedPass(layers); return })
		if passOK(tres, err, "traced pass") {
			traced = append(traced, d)
		}
	}
	if len(untraced) == 0 {
		return fmt.Errorf("life-wear: no pass succeeded")
	}

	fmt.Fprintf(r.log, "life-wear: %d scenarios x %d epochs, %d passes, %d epochs simulated per pass (%.1f%% replayed)\n",
		len(w.configs), total/uint64(len(w.configs)), len(untraced), sim, 100*float64(total-sim)/float64(total))
	r.addExact("lifetime.epochs_simulated", "count", float64(sim))
	r.addExact("lifetime.replay_frac", "frac", float64(total-sim)/float64(total))
	r.addExact("scan.pivot_cells", "count", float64(pivot))
	r.addExact("scan.remap_candidates", "count", float64(remapC))
	r.addExact("scan.ladder_candidates", "count", float64(ladderC))
	r.addExact("recover.checker_runs", "count", float64(checks))
	r.addExact("recover.retries", "count", float64(retries))
	if !r.trace {
		r.addEndToEnd(untraced, float64(total), "timeline epochs (replayed ones included)")
		return nil
	}
	var simNs, replayNs, simN, replayN int64
	for _, c := range layers.epochs {
		simNs += c.simNs
		replayNs += c.replayNs
		simN += c.simEpochs
		replayN += c.replayEpochs
	}
	r.add("lifetime.sim_epoch_ms", "ms", ratio(float64(simNs)/1e6, float64(simN)))
	r.add("lifetime.replay_epoch_us", "us", ratio(float64(replayNs)/1e3, float64(replayN)))
	r.add("scan.next_us", "us", ratio(float64(layers.scan.nextNs.Load())/1e3, float64(layers.scan.nextCalls.Load())))
	r.add("scan.remap_us", "us", ratio(float64(layers.scan.remapNs.Load())/1e3, float64(layers.scan.remapCalls.Load())))
	r.add("trace.overhead_frac", "frac", median(traced)/median(untraced)-1)
	return nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
