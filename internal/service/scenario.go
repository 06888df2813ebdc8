package service

import (
	"encoding/json"
	"fmt"

	"agingcgra"
	"agingcgra/internal/lifetime"
)

// ResultJSON is the JSON shape of one scenario outcome — the simulator's
// own result type, served verbatim.
type ResultJSON = lifetime.Result

// ScenarioRequest is the JSON shape of one lifetime scenario. Zero values
// select the same defaults as the library facade: the BE design (2x16),
// the baseline allocator, the full ten-benchmark suite at tiny scale,
// half-year epochs over a 15-year horizon at the calibration corner.
type ScenarioRequest struct {
	// Name labels the scenario in its result (default "<geom>/<allocator>").
	Name string `json:"name,omitempty"`
	// Rows and Cols size the fabric.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Allocator names the strategy (see agingcgra.AllocatorNames).
	Allocator string `json:"allocator,omitempty"`
	// Benchmarks is the per-epoch workload mix; a name may repeat to
	// weight it.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Size is the workload input scale: "tiny", "small" or "large".
	Size string `json:"size,omitempty"`
	// EpochYears and MaxYears set the simulation step and horizon.
	EpochYears float64 `json:"epoch_years,omitempty"`
	MaxYears   float64 `json:"max_years,omitempty"`
	// TemperatureK and Vdd override the constant operating point (0 keeps
	// the model's calibration corner). Ignored when Profile is set.
	TemperatureK float64 `json:"temperature_k,omitempty"`
	Vdd          float64 `json:"vdd,omitempty"`
	// Profile varies the operating point over time; each phase holds until
	// its until_years, the last extends to the horizon.
	Profile []agingcgra.LifetimePhase `json:"profile,omitempty"`
	// DeadPattern names a clustered-failure layout injected before the
	// first epoch (see fabric.PatternCells): "column[:c]", "columns:c1+c2",
	// "quadrant", "checkerboard[:p]", "survivor-row[:r]", "healthy".
	DeadPattern string `json:"dead_pattern,omitempty"`
	// StaleTranslations / ShapeTranslations select the translation regime
	// (mutually exclusive); ShapeLadder names the candidate shape ladder.
	StaleTranslations bool   `json:"stale_translations,omitempty"`
	ShapeTranslations bool   `json:"shape_translations,omitempty"`
	ShapeLadder       string `json:"shape_ladder,omitempty"`
	// Seed seeds the fault-injection PRNG; unused (and excluded from
	// fingerprints) unless Faults or Recovery is set.
	Seed uint64 `json:"seed,omitempty"`
	// Faults enables wear-derived intermittent faults (requires Recovery);
	// Recovery enables the detection/quarantine/recovery layer.
	Faults   *agingcgra.FaultModel     `json:"faults,omitempty"`
	Recovery *agingcgra.RecoveryPolicy `json:"recovery,omitempty"`
}

// config converts the request to a facade LifetimeConfig; name resolution
// and validation happen in LifetimeConfig.Scenario / lifetime.Run.
func (r ScenarioRequest) config() (agingcgra.LifetimeConfig, error) {
	size, err := parseSize(r.Size)
	if err != nil {
		return agingcgra.LifetimeConfig{}, err
	}
	return agingcgra.LifetimeConfig{
		Name:              r.Name,
		Rows:              r.Rows,
		Cols:              r.Cols,
		Allocator:         r.Allocator,
		Benchmarks:        r.Benchmarks,
		Size:              size,
		EpochYears:        r.EpochYears,
		MaxYears:          r.MaxYears,
		TemperatureK:      r.TemperatureK,
		Vdd:               r.Vdd,
		Profile:           r.Profile,
		DeadPattern:       r.DeadPattern,
		StaleTranslations: r.StaleTranslations,
		ShapeTranslations: r.ShapeTranslations,
		ShapeLadder:       r.ShapeLadder,
		Seed:              r.Seed,
		Faults:            r.Faults,
		Recovery:          r.Recovery,
	}, nil
}

func parseSize(s string) (agingcgra.Size, error) {
	switch s {
	case "", "tiny":
		return agingcgra.Tiny, nil
	case "small":
		return agingcgra.Small, nil
	case "large":
		return agingcgra.Large, nil
	}
	return 0, fmt.Errorf(`unknown size %q (want "tiny", "small" or "large")`, s)
}

// normalized fills defaulted fields with their effective values and drops
// fields that cannot affect the outcome, so equivalent requests share one
// fingerprint. Normalization is best-effort: a missed equivalence (e.g. an
// allocator alias) only costs a duplicate store entry, never correctness.
func (r ScenarioRequest) normalized() ScenarioRequest {
	if r.Rows == 0 {
		r.Rows = 2
	}
	if r.Cols == 0 {
		r.Cols = 16
	}
	if r.Allocator == "" {
		r.Allocator = "baseline"
	}
	if len(r.Benchmarks) == 0 {
		r.Benchmarks = agingcgra.Benchmarks()
	}
	if r.Size == "" {
		r.Size = "tiny"
	}
	if r.EpochYears == 0 {
		r.EpochYears = 0.5
	}
	if r.MaxYears == 0 {
		r.MaxYears = 15
	}
	if len(r.Profile) > 0 {
		// The profile overrides the constant operating point entirely.
		r.TemperatureK, r.Vdd = 0, 0
	}
	if r.DeadPattern == "healthy" || r.DeadPattern == "none" {
		r.DeadPattern = ""
	}
	if r.Faults == nil && r.Recovery == nil {
		r.Seed = 0 // the PRNG is never consulted
	} else if r.Seed == 0 {
		r.Seed = 1 // the simulator's default
	}
	return r
}

// fingerprint content-addresses the full request: canonical JSON of the
// normalized request, covering every field that can influence the response
// bytes (including Name and MaxYears). Fleet queries deduplicate their
// drawn devices on it.
func (r ScenarioRequest) fingerprint() string {
	b, err := json.Marshal(r.normalized())
	if err != nil {
		// Every field is a plain value; marshal cannot fail.
		panic(fmt.Sprintf("service: fingerprinting scenario: %v", err))
	}
	return string(b)
}

// epochFingerprint names the scenario's co-simulation inputs for the shared
// epoch store (lifetime.Scenario.Fingerprint). It is a drop-list over the
// normalized request: fields one epoch's co-simulation never reads are
// zeroed, so scenarios that differ only in them share epoch outcomes.
//
//   - Name is a label and MaxYears the horizon, which the epoch loop never
//     observes.
//   - EpochYears, Profile, TemperatureK and Vdd only change how wear
//     accrues between epochs; wear-adaptive scenarios key on the wear
//     itself.
//   - DeadPattern's cells enter the epoch key as health content.
//
// A field left in costs sharing, never correctness. Seed, Faults and
// Recovery stay in; scenarios with a recovery monitor never consult the
// shared store anyway.
func (r ScenarioRequest) epochFingerprint() string {
	n := r.normalized()
	n.Name, n.MaxYears = "", 0
	n.EpochYears, n.Profile, n.TemperatureK, n.Vdd = 0, nil, 0, 0
	n.DeadPattern = ""
	b, err := json.Marshal(n)
	if err != nil {
		panic(fmt.Sprintf("service: fingerprinting scenario: %v", err))
	}
	return string(b)
}

// scenario resolves a request into the lifetime.Scenario every endpoint
// runs, wired to the server's shared GPP-reference memo and epoch store.
func (s *Server) scenario(req ScenarioRequest) (lifetime.Scenario, error) {
	cfg, err := req.config()
	if err != nil {
		return lifetime.Scenario{}, err
	}
	sc, err := cfg.Scenario()
	if err != nil {
		return lifetime.Scenario{}, err
	}
	sc.Refs = s.refs
	sc.EpochMemo = s.epochs
	sc.Fingerprint = req.epochFingerprint()
	return sc, nil
}

// runScenario resolves and runs one scenario. Results are immutable once
// returned; callers only read and marshal them.
func (s *Server) runScenario(req ScenarioRequest) (*ResultJSON, error) {
	sc, err := s.scenario(req)
	if err != nil {
		return nil, err
	}
	return lifetime.Run(sc)
}
