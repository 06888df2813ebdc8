package main

import (
	"fmt"
	"strings"
	"time"

	"agingcgra"
	"agingcgra/internal/dse"
	"agingcgra/internal/prog"
)

// paperRepro is the paper-repro workload: the full reproduction at Small
// (Fig. 1, 6, 7, 8, Tables I and II), design points over the load's
// workers.
type paperRepro struct {
	opt   agingcgra.ExperimentOptions
	order []string
	// refInstrs is the guest instruction count of one GPP reference run of
	// the whole suite; every experiment with design points recomputes the
	// references once.
	refInstrs uint64
}

// Pinned reproduction results: the BE scenario's Table I lifetime
// improvement next to the paper's, and the Fig. 6 scenario selection.
const (
	pinnedBEImprovement = "2.40"
	paperBEImprovement  = "2.29"
)

var pinnedSelection = []struct {
	sc   agingcgra.Scenario
	geom string
}{
	{agingcgra.BE, "L16,W2"},
	{agingcgra.BP, "L24,W4"},
	{agingcgra.BU, "L32,W8"},
}

func (w *paperRepro) kernels() ([]string, prog.Size) { return prog.Names(), prog.Small }

// setup validates the suite against its Go references on the plain
// interpreter and computes the GPP references cold, the first steps of a
// reproduction.
func (w *paperRepro) setup(r *run) error {
	w.opt = agingcgra.ExperimentOptions{Size: agingcgra.Small, Workers: loadWorkers()}
	w.order = reproOrder(r.seed)
	if err := agingcgra.ValidateSuiteSmall(agingcgra.Small); err != nil {
		return err
	}
	refs := dse.NewRefCache()
	w.refInstrs = 0
	for _, b := range prog.All() {
		ref, err := refs.Get(b, prog.Small, gppTiming)
		if err != nil {
			return err
		}
		w.refInstrs += ref.Classes.Total()
	}
	return nil
}

func (w *paperRepro) close() {}

// reproPass is one reproduction's outputs.
type reproPass struct {
	renders map[string]string
	instrs  uint64
	table1  *agingcgra.Table1Result
	fig6    *agingcgra.Fig6Result
}

// digest covers every rendered figure and table, in paper order.
func (p *reproPass) digest() string {
	var b strings.Builder
	for _, name := range reproExperiments {
		b.WriteString(p.renders[name])
	}
	return digestBytes([]byte(b.String()))
}

// pass runs the reproduction steps in the seed's order.
func (w *paperRepro) pass() (*reproPass, error) {
	p := &reproPass{renders: make(map[string]string)}
	var suiteInstrs, points, refSets uint64
	sumInstrs := func(s *agingcgra.SuiteResult) uint64 {
		var n uint64
		for _, b := range s.PerBench {
			n += b.Report.TotalInstrs
		}
		return n
	}
	for _, name := range w.order {
		switch name {
		case "fig1":
			res, err := agingcgra.Fig1(w.opt)
			if err != nil {
				return nil, err
			}
			p.renders[name] = res.Render()
			suiteInstrs = sumInstrs(res.Suite)
			points++
		case "fig6":
			res, err := agingcgra.Fig6(w.opt)
			if err != nil {
				return nil, err
			}
			p.renders[name] = res.Render()
			p.fig6 = res
			points += uint64(len(res.Points))
		case "fig7":
			res, err := agingcgra.Fig7(w.opt)
			if err != nil {
				return nil, err
			}
			p.renders[name] = res.Render()
			if a, b := sumInstrs(res.Baseline), sumInstrs(res.Proposed); a != b {
				return nil, fmt.Errorf("fig7: baseline ran %d guest instructions, proposed %d", a, b)
			}
			points += 2
		case "fig8":
			res, err := agingcgra.Fig8(w.opt)
			if err != nil {
				return nil, err
			}
			p.renders[name] = res.Render()
			points += 2 * uint64(len(res.Series))
		case "table1":
			res, err := agingcgra.Table1(w.opt)
			if err != nil {
				return nil, err
			}
			p.renders[name] = res.Render()
			p.table1 = res
			points += 2 * uint64(len(res.Rows))
		case "table2":
			p.renders[name] = agingcgra.Table2().Render()
			continue
		}
		refSets++
	}
	p.instrs = points*suiteInstrs + refSets*w.refInstrs
	return p, nil
}

// checkRepro checks the pinned paper results.
func checkRepro(r *run, p *reproPass) {
	for _, pin := range pinnedSelection {
		if got := p.fig6.Selected[pin.sc].String(); got != pin.geom {
			r.fail("fig6: selected %v = %s, pinned %s", pin.sc, got, pin.geom)
		}
	}
	for _, row := range p.table1.Rows {
		if row.Scenario != agingcgra.BE {
			continue
		}
		got := fmt.Sprintf("%.2f", row.LifetimeImprovement)
		fmt.Fprintf(r.log, "Table I, BE: lifetime improvement %sx measured vs %sx in the paper "+
			"(an NBTI model reproduction, not validated against silicon)\n", got, paperBEImprovement)
		if got != pinnedBEImprovement {
			r.fail("table1: BE lifetime improvement %sx, pinned %sx", got, pinnedBEImprovement)
		}
	}
}

func (w *paperRepro) measure(r *run) error {
	ref, err := w.pass()
	if err != nil {
		return err
	}
	checkRepro(r, ref)
	want := ref.digest()
	r.checkGolden("paper-repro renders", want)

	var passes []float64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		var p *reproPass
		d, err := timeIt(func() (err error) { p, err = w.pass(); return })
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.fail("paper-repro pass: %v", err)
		case p.digest() != want || p.instrs != ref.instrs:
			r.failed++
			r.fail("paper-repro pass: digest %s (%d instructions), want %s (%d)", p.digest(), p.instrs, want, ref.instrs)
		default:
			passes = append(passes, d)
		}
	}
	if len(passes) == 0 {
		return fmt.Errorf("paper-repro: no pass succeeded")
	}
	fmt.Fprintf(r.log, "paper-repro: order %v, %d guest instructions per pass\n", w.order, ref.instrs)
	if !r.trace {
		r.addEndToEnd(passes, float64(ref.instrs), "guest instructions co-simulated (design points and GPP references)")
		return nil
	}
	// The reproduction exposes no seam to trace through: its traced pass
	// is the untraced one, so tracing costs nothing here.
	r.add("trace.overhead_frac", "frac", 0)
	return nil
}
