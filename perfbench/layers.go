package main

import (
	"fmt"
	"time"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// probeReps is how often the layer probes repeat; their exact counters must
// agree across repetitions, and timings are the fastest repetition's.
const probeReps = 2

// layerProbe is one repetition's measurements of the GPP, DBT and sweep
// layers over a workload's kernels.
type layerProbe struct {
	refSec, gppSec, gppInstrs float64
	runSec                    float64
	runs                      int
	rep                       dbt.Report
	pointSec                  float64
}

// probeLayers times the layers under the co-simulation directly, on the
// workload's own kernels at its input size, on the BE design with the
// paper's utilization-aware allocator:
//   - gpp: a cold dse.RefCache.Get per kernel, and dbt.RunGPPOnly;
//   - dbt/mapper/cfgcache: dbt.Engine.Run per kernel, with its Report;
//   - dse: one dse.RunSuite design point over the kernels.
func probeLayers(r *run, names []string, size prog.Size) error {
	var best layerProbe
	var reps [][]exact
	for i := 0; i < probeReps; i++ {
		p, err := probeOnce(names, size)
		if err != nil {
			return err
		}
		reps = append(reps, []exact{
			{"dbt.instrs", float64(p.rep.TotalInstrs)},
			{"dbt.offloads", float64(p.rep.Offloads)},
			{"dbt.translations", float64(p.rep.Translations)},
			{"cfgcache.hits", float64(p.rep.Cache.Hits)},
			{"cfgcache.flushes", float64(p.rep.Cache.Flushes)},
			{"gpp.instrs", p.gppInstrs},
		})
		if i == 0 {
			best = p
			continue
		}
		best.refSec = min(best.refSec, p.refSec)
		best.gppSec = min(best.gppSec, p.gppSec)
		best.runSec = min(best.runSec, p.runSec)
		best.pointSec = min(best.pointSec, p.pointSec)
	}
	r.sameExact("layer probes", reps)
	n := float64(len(names))
	r.add("gpp.ref_ms", "ms", 1e3*best.refSec/n)
	r.add("gpp.instrs_per_s", "1/s", best.gppInstrs/best.gppSec)
	r.add("dbt.run_ms", "ms", 1e3*best.runSec/float64(best.runs))
	r.addExact("dbt.instrs", "count", float64(best.rep.TotalInstrs))
	r.addExact("dbt.offloads", "count", float64(best.rep.Offloads))
	r.addExact("dbt.translations", "count", float64(best.rep.Translations))
	r.addExact("cfgcache.hit_rate", "frac", best.rep.Cache.HitRate())
	r.addExact("cfgcache.flushes", "count", float64(best.rep.Cache.Flushes))
	r.add("dse.point_s", "s", best.pointSec)
	return nil
}

func probeOnce(names []string, size prog.Size) (layerProbe, error) {
	var p layerProbe
	g := fabric.NewGeometry(2, 16)
	refs := dse.NewRefCache()
	for _, name := range names {
		b, ok := prog.ByName(name)
		if !ok {
			return p, fmt.Errorf("unknown kernel %q", name)
		}

		start := time.Now()
		if _, err := dse.NewRefCache().Get(b, size, gppTiming); err != nil {
			return p, err
		}
		p.refSec += time.Since(start).Seconds()

		c, err := b.NewCore(size)
		if err != nil {
			return p, err
		}
		start = time.Now()
		_, classes, err := dbt.RunGPPOnly(c, gppTiming, b.MaxInstructions)
		p.gppSec += time.Since(start).Seconds()
		if err != nil {
			return p, err
		}
		if err := b.Check(c.Mem, c.Regs[isa.A0], size); err != nil {
			return p, fmt.Errorf("%s on the GPP: %w", name, err)
		}
		c.Release()
		p.gppInstrs += float64(classes.Total())

		eng, err := dbt.NewEngine(dbt.Options{Geom: g, Allocator: alloc.NewUtilizationAware(g)})
		if err != nil {
			return p, err
		}
		c, err = b.NewCore(size)
		if err != nil {
			return p, err
		}
		start = time.Now()
		rep, err := eng.Run(c, b.MaxInstructions)
		p.runSec += time.Since(start).Seconds()
		if err != nil {
			return p, err
		}
		if err := b.Check(c.Mem, c.Regs[isa.A0], size); err != nil {
			return p, fmt.Errorf("%s on the CGRA: %w", name, err)
		}
		c.Release()
		p.runs++
		p.rep.TotalInstrs += rep.TotalInstrs
		p.rep.Offloads += rep.Offloads
		p.rep.Translations += rep.Translations
		p.rep.Cache.Hits += rep.Cache.Hits
		p.rep.Cache.Misses += rep.Cache.Misses
		p.rep.Cache.Flushes += rep.Cache.Flushes

		if _, err := refs.Get(b, size, gppTiming); err != nil {
			return p, err
		}
	}
	// One design point with warm references, as a sweep runs it.
	start := time.Now()
	if _, err := dse.RunSuite(g, dse.ProposedFactory, dse.Options{Size: size, Benchmarks: names, Refs: refs}); err != nil {
		return p, err
	}
	p.pointSec = time.Since(start).Seconds()
	return p, nil
}
