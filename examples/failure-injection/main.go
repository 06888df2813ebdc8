// Failure injection: the paper motivates aging mitigation with early-stage
// FU failures that "limit the ILP exploitation and CGRA performance". This
// example makes that concrete with the first-class fabric.Health capability:
// it kills the most-stressed FUs one by one (the ones the baseline allocator
// wears out first) and measures how the system degrades — the DBT's mapper
// places new translations on live cells only, and the aging-mitigation
// controller skips pivot offsets that would rotate a configuration onto a
// dead FU, so architectural correctness survives every failure.
package main

import (
	"fmt"
	"log"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dbt"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/prog"
	"agingcgra/internal/report"
)

func main() {
	geom := fabric.NewGeometry(2, 16) // the BE design
	bench, _ := prog.ByName("sha")

	// Reference: the healthy fabric.
	healthy := run(bench, geom, fabric.NewHealth(geom), "baseline").TotalCycles
	fmt.Printf("healthy fabric: %d cycles\n\n", healthy)

	// Kill FUs in the order the baseline allocator stresses them: the
	// top-left corner first, exactly where Fig. 1 says the wear
	// concentrates.
	killOrder := []fabric.Cell{
		{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 0},
		{Row: 0, Col: 2}, {Row: 1, Col: 1}, {Row: 0, Col: 3},
		{Row: 1, Col: 2}, {Row: 1, Col: 3},
	}

	tab := &report.Table{Header: []string{
		"dead FUs", "baseline cycles", "slowdown", "rotated cycles", "slowdown",
		"rot worst duty", "explore worst duty"}}
	healthBase := fabric.NewHealth(geom)
	healthRot := fabric.NewHealth(geom)
	healthExp := fabric.NewHealth(geom)
	for i := 0; i <= len(killOrder); i++ {
		if i > 0 {
			healthBase.Kill(killOrder[i-1])
			healthRot.Kill(killOrder[i-1])
			healthExp.Kill(killOrder[i-1])
		}
		base := run(bench, geom, healthBase, "baseline")
		rot := run(bench, geom, healthRot, "snake")
		exp := run(bench, geom, healthExp, "explore")
		rotWorst, _ := rot.Util.Max()
		expWorst, _ := exp.Util.Max()
		tab.AddRow(
			fmt.Sprintf("%d", healthBase.DeadCount()),
			fmt.Sprintf("%d", base.TotalCycles),
			fmt.Sprintf("%+.1f%%", 100*(float64(base.TotalCycles)/float64(healthy)-1)),
			fmt.Sprintf("%d", rot.TotalCycles),
			fmt.Sprintf("%+.1f%%", 100*(float64(rot.TotalCycles)/float64(healthy)-1)),
			fmt.Sprintf("%.1f%%", 100*rotWorst),
			fmt.Sprintf("%.1f%%", 100*expWorst),
		)
	}
	fmt.Print(tab.String())
	fmt.Println()
	fmt.Println("The DBT maps new translations around dead cells and the controller")
	fmt.Println("refuses pivots that would drive them, so the system keeps working,")
	fmt.Println("and the pivot skip is free: rotated and baseline cycles match even")
	fmt.Println("on the damaged fabric (placement moves stress, not latency) —")
	fmt.Println("but every dead FU near the hot corner costs ILP and stretches the")
	fmt.Println("configurations, and the blind rotation's skip-scan re-concentrates")
	fmt.Println("duty on whichever survivors follow the dead cells in the pattern")
	fmt.Println("(the 'rot worst duty' climb). The wear-aware placement explorer")
	fmt.Println("instead searches the live pivots for the placement minimising the")
	fmt.Println("maximum projected ΔVt, keeping survivor duty flat as the fabric")
	fmt.Println("shrinks. Run cmd/cgra-lifetime for the multi-year three-way view.")
}

// run executes the benchmark against the given fabric health and returns
// the report. Dead cells force the mapper and the placement elsewhere.
func run(bench *prog.Benchmark, geom fabric.Geometry, health *fabric.Health, allocator string) *dbt.Report {
	core, err := bench.NewCore(prog.Tiny)
	if err != nil {
		log.Fatal(err)
	}
	var a alloc.Allocator = alloc.Baseline{}
	switch allocator {
	case "snake":
		a = alloc.NewUtilizationAware(geom)
	case "explore":
		a = explore.New(geom)
	}
	eng, err := dbt.NewEngine(dbt.Options{
		Geom:      geom,
		Allocator: a,
		Health:    health,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Run(core, bench.MaxInstructions)
	if err != nil {
		log.Fatal(err)
	}
	// Architectural correctness survives failures.
	if err := bench.Check(core.Mem, core.Regs[10], prog.Tiny); err != nil {
		log.Fatal(err)
	}
	return rep
}
