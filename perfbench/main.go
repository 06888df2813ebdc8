// Command perfbench is the repository's benchmark of record. It runs one of
// three seeded workloads against the simulator and its fleet service,
// checks the outputs, and prints every metric by name and unit, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) of the same workload reports the per-layer metrics, measured
// from outside by timing calls into the layers' public functions. See
// README.md for the workloads, the load shape and the metric map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload life-wear -seed 1 -seconds 15 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"agingcgra/internal/gpp"
	"agingcgra/internal/prog"
)

// workload is one benchmark workload.
type workload interface {
	// kernels names the guest programs the workload runs, for the
	// per-layer probes.
	kernels() ([]string, prog.Size)
	// setup prepares the workload from the run's seed; it is timed and
	// repeated, and the last repetition's state is the one measured.
	setup(r *run) error
	// measure runs the timed phase (and, when tracing, the traced one),
	// checking every output.
	measure(r *run) error
	// close releases what setup acquired.
	close()
}

var workloads = map[string]func() workload{
	"life-wear":   func() workload { return &lifeWear{} },
	"paper-repro": func() workload { return &paperRepro{} },
	"fleet-mixed": func() workload { return &fleetMixed{} },
}

// Metric tables: the end-to-end metrics every untraced run reports and the
// per-layer metrics every traced run reports, in print order. A layer a
// workload does not exercise reads 0.
var (
	endToEnd = []metric{
		{Name: "setup_s", Unit: "s"},
		{Name: "work_per_s", Unit: "1/s"},
		{Name: "latency_p50_ms", Unit: "ms"},
		{Name: "latency_p90_ms", Unit: "ms"},
		{Name: "max_rss_mb", Unit: "MiB"},
	}
	perLayer = []metric{
		{Name: "lifetime.epochs_simulated", Unit: "count"},
		{Name: "lifetime.replay_frac", Unit: "frac"},
		{Name: "lifetime.sim_epoch_ms", Unit: "ms"},
		{Name: "lifetime.replay_epoch_us", Unit: "us"},
		{Name: "gpp.ref_ms", Unit: "ms"},
		{Name: "gpp.instrs_per_s", Unit: "1/s"},
		{Name: "dbt.run_ms", Unit: "ms"},
		{Name: "dbt.instrs", Unit: "count"},
		{Name: "dbt.offloads", Unit: "count"},
		{Name: "dbt.translations", Unit: "count"},
		{Name: "cfgcache.hit_rate", Unit: "frac"},
		{Name: "cfgcache.flushes", Unit: "count"},
		{Name: "scan.pivot_cells", Unit: "count"},
		{Name: "scan.remap_candidates", Unit: "count"},
		{Name: "scan.ladder_candidates", Unit: "count"},
		{Name: "scan.next_us", Unit: "us"},
		{Name: "scan.remap_us", Unit: "us"},
		{Name: "recover.checker_runs", Unit: "count"},
		{Name: "recover.retries", Unit: "count"},
		{Name: "dse.point_s", Unit: "s"},
		{Name: "memo.results.hit_rate", Unit: "frac"},
		{Name: "memo.epochs.hit_rate", Unit: "frac"},
		{Name: "memo.evictions", Unit: "count"},
		{Name: "service.combos_per_req", Unit: "count"},
		{Name: "trace.overhead_frac", Unit: "frac"},
	}
)

const (
	// A run sets up at least setupReps times and until setupSeconds have
	// passed (at most setupMaxReps times); setup_s is the median.
	setupReps    = 3
	setupSeconds = 0.5
	setupMaxReps = 100
	// minPasses is the fewest timed passes a batch workload makes,
	// however short -seconds is.
	minPasses = 3
	// maxLoad caps goroutines, connections and pool workers.
	maxLoad = 2
)

// exactStateDir holds, per workload, seed and code identity, the exact
// counters of the first run in this checkout; later runs of the same code
// and seed must reproduce them.
const exactStateDir = ".bench_build/perfbench-exact"

// gppTiming is the GPP timing model of every reference run (the zero value
// selects gpp.DefaultTiming, as the simulator's own callers do).
var gppTiming gpp.Timing

// loadWorkers is the worker count of every pool the benchmark drives:
// GOMAXPROCS, capped at maxLoad.
func loadWorkers() int { return min(runtime.GOMAXPROCS(0), maxLoad) }

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, exactStateDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer, stateDir string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	code, err := codeID()
	if err != nil {
		return fmt.Errorf("identifying the code under test: %w", err)
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, log: stdout, stateDir: stateDir, code: code}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d load=%d code=%s\n",
		r.workload, r.seed, r.seconds, *traced, runtime.GOMAXPROCS(0), loadWorkers(), r.code)

	w := mk()
	defer w.close()
	var setups []float64
	var spent float64
	for i := 0; i < setupMaxReps && (i < setupReps || spent < setupSeconds); i++ {
		if i > 0 {
			w.close()
		}
		d, err := timeIt(func() error { return w.setup(r) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		spent += d
	}
	if err := w.measure(r); err != nil {
		return err
	}
	if r.trace {
		names, size := w.kernels()
		if err := probeLayers(r, names, size); err != nil {
			return err
		}
	} else {
		r.add("setup_s", "s", median(setups))
		r.add("max_rss_mb", "MiB", maxRSSMB())
	}
	if err := r.checkExactAcrossRuns(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "failed_frac %g (%d of %d operations)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	if err := r.complete(table); err != nil {
		return err
	}
	return r.emit(stdout)
}

// complete orders the run's metrics as table does, filling 0 for a layer
// the workload does not exercise, and refuses a metric outside the table.
func (r *run) complete(table []metric) error {
	var out []metric
	for _, t := range table {
		i := slices.IndexFunc(r.metrics, func(m metric) bool { return m.Name == t.Name })
		if i < 0 {
			if !r.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", t.Name)
			}
			out = append(out, t)
			continue
		}
		if r.metrics[i].Unit != t.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", t.Name, r.metrics[i].Unit, t.Unit)
		}
		out = append(out, r.metrics[i])
	}
	for _, m := range r.metrics {
		if !slices.ContainsFunc(table, func(t metric) bool { return t.Name == m.Name }) {
			return fmt.Errorf("metric %s is not declared", m.Name)
		}
	}
	r.metrics = out
	return nil
}

// addEndToEnd reports the throughput and latency of a batch workload from
// its pass times (seconds) and the work one pass does.
func (r *run) addEndToEnd(passes []float64, workPerPass float64, workUnit string) {
	var total float64
	for _, d := range passes {
		total += d
	}
	fmt.Fprintf(r.log, "work_per_s counts %s; latency is per pass (%d samples)\npass seconds: %.3f\n", workUnit, len(passes), passes)
	r.add("work_per_s", "1/s", workPerPass*float64(len(passes))/total)
	r.add("latency_p50_ms", "ms", 1e3*median(passes))
	r.add("latency_p90_ms", "ms", 1e3*percentile(passes, 90))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
