package agingcgra

import (
	"fmt"
	"strings"

	"agingcgra/internal/alloc"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/report"
)

// ExplorerSweepOptions configures the wear-aware explorer's own
// design-space exploration: the (projection horizon × recompute period)
// grid the explorer's defaults were never swept over, crossed with
// clustered-failure scenarios so the adaptivity actually has failures to
// adapt to. Every point is one lifetime simulation under stale
// translations (configurations mapped for the pristine fabric), the
// regime where the pattern decides how long the fabric stays useful.
type ExplorerSweepOptions struct {
	// Rows and Cols size the fabric (default 2×16, the BE design).
	Rows, Cols int
	// Horizons lists the projection horizons in years
	// (default 0.25, 1, 4 — around the unswept default of 1).
	Horizons []float64
	// Periods lists the recompute periods in executions
	// (default 4, 16, 64 — around the unswept default of 16).
	Periods []int
	// Failures lists named failure patterns injected before the first
	// epoch (fabric.PatternCells; default healthy, column, quadrant).
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

func (o *ExplorerSweepOptions) applyDefaults() {
	if o.Rows == 0 {
		o.Rows = 2
	}
	if o.Cols == 0 {
		o.Cols = 16
	}
	if len(o.Horizons) == 0 {
		o.Horizons = []float64{0.25, 1, 4}
	}
	if len(o.Periods) == 0 {
		o.Periods = []int{4, 16, 64}
	}
	if len(o.Failures) == 0 {
		o.Failures = []string{"healthy", "column", "quadrant"}
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

// ExplorerSweepPoint is one (horizon, period, failure) outcome.
type ExplorerSweepPoint struct {
	HorizonYears   float64 `json:"horizon_years"`
	Period         int     `json:"period"`
	Failure        string  `json:"failure"`
	FirstDeath     float64 `json:"first_death_years"`
	SecondDeath    float64 `json:"second_death_years"`
	ThirdDeath     float64 `json:"third_death_years"`
	TotalDeaths    int     `json:"total_deaths"`
	AliveFraction  float64 `json:"alive_fraction"`
	InitialSpeedup float64 `json:"initial_speedup"`
	FinalSpeedup   float64 `json:"final_speedup"`
}

// ExplorerSweepResult is the full grid in deterministic order: failures
// outermost, then horizons, then periods.
type ExplorerSweepResult struct {
	Geom   Geometry             `json:"geom"`
	Points []ExplorerSweepPoint `json:"points"`
}

// ExplorerSweep runs the (horizon × period × failure) grid through the
// lifetime engine's scenario batch: deterministic point order,
// byte-identical results between serial and parallel runs.
func ExplorerSweep(opt ExplorerSweepOptions) (*ExplorerSweepResult, error) {
	opt.applyDefaults()
	g := fabric.NewGeometry(opt.Rows, opt.Cols)
	if err := g.Validate(); err != nil {
		return nil, err
	}

	type key struct {
		horizon float64
		period  int
		failure string
	}
	var keys []key
	var scs []lifetime.Scenario
	for _, failure := range opt.Failures {
		dead, err := fabric.PatternCells(failure, g)
		if err != nil {
			return nil, err
		}
		for _, horizon := range opt.Horizons {
			if horizon <= 0 {
				return nil, fmt.Errorf("agingcgra: explorer sweep horizon %v must be positive", horizon)
			}
			for _, period := range opt.Periods {
				if period < 1 {
					return nil, fmt.Errorf("agingcgra: explorer sweep period %d must be >= 1", period)
				}
				h, p := horizon, period
				sc := lifetime.Scenario{
					Name: fmt.Sprintf("%v/explore/h=%vy/p=%d/%s", g, h, p, failure),
					Geom: g,
					Factory: func(g fabric.Geometry) alloc.Allocator {
						return explore.New(g, explore.WithHorizon(h), explore.WithRecomputeEvery(p))
					},
					Mix:         opt.Benchmarks,
					Size:        opt.Size,
					EpochYears:  opt.EpochYears,
					MaxYears:    opt.MaxYears,
					InitialDead: dead,
				}
				sc.Engine.StaleTranslations = true
				keys = append(keys, key{horizon: h, period: p, failure: failure})
				scs = append(scs, sc)
			}
		}
	}

	results, err := lifetime.RunScenarios(scs, opt.Workers)
	if err != nil {
		return nil, err
	}
	out := &ExplorerSweepResult{Geom: g}
	for i, r := range results {
		out.Points = append(out.Points, ExplorerSweepPoint{
			HorizonYears:   keys[i].horizon,
			Period:         keys[i].period,
			Failure:        keys[i].failure,
			FirstDeath:     r.NthDeathYears(1),
			SecondDeath:    r.NthDeathYears(2),
			ThirdDeath:     r.NthDeathYears(3),
			TotalDeaths:    r.TotalDeaths,
			AliveFraction:  r.AliveFraction,
			InitialSpeedup: r.InitialSpeedup,
			FinalSpeedup:   r.FinalSpeedup,
		})
	}
	return out, nil
}

// Render prints the grid as a table, one block per failure scenario.
func (r *ExplorerSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Explorer DSE - projection horizon x recompute period on %v (stale translations)\n", r.Geom)
	byFailure := make(map[string][]ExplorerSweepPoint)
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
			"horizon", "period", "1st death", "2nd death", "3rd death", "deaths", "alive", "speedup@0", "speedup@end",
		}}
		for _, p := range byFailure[failure] {
			tab.AddRow(
				fmt.Sprintf("%gy", p.HorizonYears),
				fmt.Sprintf("%d", p.Period),
				death(p.FirstDeath), death(p.SecondDeath), death(p.ThirdDeath),
				fmt.Sprintf("%d", p.TotalDeaths),
				fmt.Sprintf("%.0f%%", 100*p.AliveFraction),
				fmt.Sprintf("%.2f", p.InitialSpeedup),
				fmt.Sprintf("%.2f", p.FinalSpeedup),
			)
		}
		b.WriteString(tab.String())
	}
	return b.String()
}

// CSVRows flattens the grid for report.WriteCSV, matching CSVHeader.
func (r *ExplorerSweepResult) CSVRows() [][]string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Failure,
			fmt.Sprintf("%g", p.HorizonYears),
			fmt.Sprintf("%d", p.Period),
			fmt.Sprintf("%.6f", p.FirstDeath),
			fmt.Sprintf("%.6f", p.SecondDeath),
			fmt.Sprintf("%.6f", p.ThirdDeath),
			fmt.Sprintf("%d", p.TotalDeaths),
			fmt.Sprintf("%.6f", p.AliveFraction),
			fmt.Sprintf("%.6f", p.InitialSpeedup),
			fmt.Sprintf("%.6f", p.FinalSpeedup),
		})
	}
	return rows
}

// CSVHeader names the CSVRows columns.
func (r *ExplorerSweepResult) CSVHeader() []string {
	return []string{
		"failure", "horizon_years", "period",
		"first_death_years", "second_death_years", "third_death_years",
		"total_deaths", "alive_fraction", "initial_speedup", "final_speedup",
	}
}
