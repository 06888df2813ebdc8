package agingcgra

import (
	"fmt"
	"strings"

	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/report"
)

// ShapeSweepOptions configures the shape-ladder design-space exploration:
// the candidate ladder the translation-time shape search and the remap
// rescue share was a fixed halving ladder until this sweep existed, so the
// grid crosses the named ladder variants with clustered-failure scenarios
// and reports both the lifetime outcomes and the derived search cost of
// each ladder — richer ladders search more and place better, and the sweep
// quantifies both sides of that trade.
type ShapeSweepOptions struct {
	// Rows and Cols size the fabric (default 2×16, the BE design).
	Rows, Cols int
	// Ladders names the candidate shape ladders swept
	// (fabric.ShapeLadderNames; default all of them).
	Ladders []string
	// Failures lists named failure patterns injected before the first
	// epoch (fabric.PatternCells; default healthy, column, columns:0+8).
	Failures []string
	// Benchmarks is the per-epoch mix (default crc32).
	Benchmarks []string
	// Size is the workload scale (default Tiny).
	Size Size
	// EpochYears and MaxYears shape the timeline (default 0.5 / 20).
	EpochYears float64
	MaxYears   float64
	// Workers bounds scenario parallelism (0: GOMAXPROCS, 1: serial).
	Workers int
}

func (o *ShapeSweepOptions) applyDefaults() {
	if o.Rows == 0 {
		o.Rows = 2
	}
	if o.Cols == 0 {
		o.Cols = 16
	}
	if len(o.Ladders) == 0 {
		o.Ladders = fabric.ShapeLadderNames()
	}
	if len(o.Failures) == 0 {
		o.Failures = []string{"healthy", "column", "columns:0+8"}
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"crc32"}
	}
	if o.EpochYears == 0 {
		o.EpochYears = 0.5
	}
	if o.MaxYears == 0 {
		o.MaxYears = 20
	}
}

// ShapeSweepPoint is one (ladder, failure) outcome: lifetime summary plus
// the derived search overhead the ladder cost.
type ShapeSweepPoint struct {
	Ladder         string  `json:"ladder"`
	Rungs          int     `json:"rungs"`
	Failure        string  `json:"failure"`
	FirstDeath     float64 `json:"first_death_years"`
	SecondDeath    float64 `json:"second_death_years"`
	ThirdDeath     float64 `json:"third_death_years"`
	TotalDeaths    int     `json:"total_deaths"`
	AliveFraction  float64 `json:"alive_fraction"`
	InitialSpeedup float64 `json:"initial_speedup"`
	FinalSpeedup   float64 `json:"final_speedup"`
	// SearchPerOffloadCycles is the derived per-offload search overhead
	// (explorer + rescue + ladder scans) under searchcost.DefaultModel.
	SearchPerOffloadCycles float64 `json:"search_per_offload_cycles"`
}

// ShapeSweepResult is the full grid in deterministic order: failures
// outermost, then ladders.
type ShapeSweepResult struct {
	Geom   Geometry          `json:"geom"`
	Points []ShapeSweepPoint `json:"points"`
}

// ShapeSweep runs the (ladder × failure) grid through the lifetime
// engine's scenario batch: every point is the shape-adaptive remapper with
// the ladder wired into both layers (translation-time search and rescue
// scan), translation-time shape search enabled. Deterministic point order,
// byte-identical results between serial and parallel runs.
func ShapeSweep(opt ShapeSweepOptions) (*ShapeSweepResult, error) {
	opt.applyDefaults()
	g := fabric.NewGeometry(opt.Rows, opt.Cols)
	if err := g.Validate(); err != nil {
		return nil, err
	}

	type key struct {
		ladder  string
		rungs   int
		failure string
	}
	var keys []key
	var scs []lifetime.Scenario
	for _, failure := range opt.Failures {
		dead, err := fabric.PatternCells(failure, g)
		if err != nil {
			return nil, err
		}
		for _, name := range opt.Ladders {
			ladder, err := fabric.ShapeLadderByName(name)
			if err != nil {
				return nil, err
			}
			sc := lifetime.Scenario{
				Name:        fmt.Sprintf("%v/shapedbt/ladder=%s/%s", g, ladder.Name, failure),
				Geom:        g,
				Factory:     dse.LadderRemapFactory(ladder),
				Mix:         opt.Benchmarks,
				Size:        opt.Size,
				EpochYears:  opt.EpochYears,
				MaxYears:    opt.MaxYears,
				InitialDead: dead,
			}
			sc.Engine.ShapeTranslations = true
			sc.Engine.Ladder = ladder
			keys = append(keys, key{ladder: ladder.Name, rungs: ladder.Len(g), failure: failure})
			scs = append(scs, sc)
		}
	}

	results, err := lifetime.RunScenarios(scs, opt.Workers)
	if err != nil {
		return nil, err
	}
	out := &ShapeSweepResult{Geom: g}
	for i, r := range results {
		p := ShapeSweepPoint{
			Ladder:         keys[i].ladder,
			Rungs:          keys[i].rungs,
			Failure:        keys[i].failure,
			FirstDeath:     r.NthDeathYears(1),
			SecondDeath:    r.NthDeathYears(2),
			ThirdDeath:     r.NthDeathYears(3),
			TotalDeaths:    r.TotalDeaths,
			AliveFraction:  r.AliveFraction,
			InitialSpeedup: r.InitialSpeedup,
			FinalSpeedup:   r.FinalSpeedup,
		}
		if r.Search != nil {
			p.SearchPerOffloadCycles = r.Search.PerOffloadCycles
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Render prints the grid as a table, one block per failure scenario.
func (r *ShapeSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shape-ladder DSE - ladder variants x failure scenarios on %v (shape-aware translation)\n", r.Geom)
	byFailure := make(map[string][]ShapeSweepPoint)
	var order []string
	for _, p := range r.Points {
		if _, ok := byFailure[p.Failure]; !ok {
			order = append(order, p.Failure)
		}
		byFailure[p.Failure] = append(byFailure[p.Failure], p)
	}
	death := func(y float64) string {
		if y == 0 {
			return "none"
		}
		return fmt.Sprintf("%.2fy", y)
	}
	for _, failure := range order {
		fmt.Fprintf(&b, "\n[failure: %s]\n", failure)
		tab := &report.Table{Header: []string{
			"ladder", "rungs", "1st death", "2nd death", "3rd death", "deaths", "alive", "speedup@0", "speedup@end", "search/offload",
		}}
		for _, p := range byFailure[failure] {
			tab.AddRow(
				p.Ladder,
				fmt.Sprintf("%d", p.Rungs),
				death(p.FirstDeath), death(p.SecondDeath), death(p.ThirdDeath),
				fmt.Sprintf("%d", p.TotalDeaths),
				fmt.Sprintf("%.0f%%", 100*p.AliveFraction),
				fmt.Sprintf("%.2f", p.InitialSpeedup),
				fmt.Sprintf("%.2f", p.FinalSpeedup),
				fmt.Sprintf("%.1fcy", p.SearchPerOffloadCycles),
			)
		}
		b.WriteString(tab.String())
	}
	return b.String()
}

// CSVRows flattens the grid for report.WriteCSV, matching CSVHeader.
func (r *ShapeSweepResult) CSVRows() [][]string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Failure,
			p.Ladder,
			fmt.Sprintf("%d", p.Rungs),
			fmt.Sprintf("%.6f", p.FirstDeath),
			fmt.Sprintf("%.6f", p.SecondDeath),
			fmt.Sprintf("%.6f", p.ThirdDeath),
			fmt.Sprintf("%d", p.TotalDeaths),
			fmt.Sprintf("%.6f", p.AliveFraction),
			fmt.Sprintf("%.6f", p.InitialSpeedup),
			fmt.Sprintf("%.6f", p.FinalSpeedup),
			fmt.Sprintf("%.6f", p.SearchPerOffloadCycles),
		})
	}
	return rows
}

// CSVHeader names the CSVRows columns.
func (r *ShapeSweepResult) CSVHeader() []string {
	return []string{
		"failure", "ladder", "rungs",
		"first_death_years", "second_death_years", "third_death_years",
		"total_deaths", "alive_fraction", "initial_speedup", "final_speedup",
		"search_per_offload_cycles",
	}
}
