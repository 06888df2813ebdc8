package main

import (
	"encoding/json"
	"math/rand/v2"

	"agingcgra"
	"agingcgra/internal/service"
)

// This file is the seeded input generator: every input the program under
// test sees is a pure function of the workload seed, drawn from a local
// PRNG (never the global one), so the same seed yields byte-identical
// scenario batches and request streams.

// newRand returns the local PRNG of one generated input. stream separates
// independent inputs drawn from the same seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// lifeWearMix is the kernel set every life-wear scenario runs each epoch.
var lifeWearMix = []string{"crc32", "sha", "dijkstra", "bitcount"}

// lifeWearFaultSeed keys the fault-injection PRNG of the recovery scenario.
// It is fixed rather than drawn: the recovery path's cost swings by a third
// between fault histories, which would swamp the run-to-run comparison.
const lifeWearFaultSeed = 7

// lifeWearConfigs builds the life-wear batch: the BE 2x16 design, Tiny
// inputs, 0.25-year epochs over 20 years, six allocator/failure scenarios.
// The seed permutes the per-epoch mix order, which changes every timeline
// but not the amount of work.
func lifeWearConfigs(seed uint64) []agingcgra.LifetimeConfig {
	r := newRand(seed, 1)
	mix := append([]string(nil), lifeWearMix...)
	r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })

	base := agingcgra.LifetimeConfig{
		Rows:       2,
		Cols:       16,
		Benchmarks: mix,
		Size:       agingcgra.Tiny,
		EpochYears: 0.25,
		MaxYears:   20,
	}
	with := func(name string, edit func(*agingcgra.LifetimeConfig)) agingcgra.LifetimeConfig {
		c := base
		c.Name = name
		edit(&c)
		return c
	}
	return []agingcgra.LifetimeConfig{
		with("snake", func(c *agingcgra.LifetimeConfig) { c.Allocator = "utilization-aware" }),
		with("explore", func(c *agingcgra.LifetimeConfig) { c.Allocator = "explore" }),
		with("remap", func(c *agingcgra.LifetimeConfig) { c.Allocator = "remap" }),
		with("remap-shape", func(c *agingcgra.LifetimeConfig) {
			c.Allocator = "remap"
			c.ShapeTranslations = true
		}),
		with("remap-stale-deadcol", func(c *agingcgra.LifetimeConfig) {
			c.Allocator = "remap"
			c.StaleTranslations = true
			c.DeadPattern = "column"
		}),
		with("explore-faults", func(c *agingcgra.LifetimeConfig) {
			c.Allocator = "explore"
			c.Seed = lifeWearFaultSeed
			c.Faults = &agingcgra.FaultModel{IntermittentAt: 0.4, MaxProb: 0.05}
			c.Recovery = &agingcgra.RecoveryPolicy{CheckEvery: 1}
		}),
	}
}

// reproExperiments names the paper-reproduction steps in paper order.
var reproExperiments = []string{"fig1", "fig6", "fig7", "fig8", "table1", "table2"}

// reproOrder is the seed's order of the reproduction steps. Every step
// builds its own GPP-reference memo, so the order changes neither the
// outputs nor the work, only the sequence the program sees.
func reproOrder(seed uint64) []string {
	order := append([]string(nil), reproExperiments...)
	r := newRand(seed, 2)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// Fleet catalog: the fixed option pools fleet requests draw from. Keeping
// the pools fixed (and only the draws seeded) keeps the cost mix of a
// request stream the same for every seed.
var (
	fleetMixes = [][]string{
		{"crc32", "sha"},
		{"dijkstra", "bitcount"},
		{"bitcount", "crc32"},
	}
	fleetProfiles = [][]agingcgra.LifetimePhase{
		{{UntilYears: 100}},
		{{UntilYears: 100, TemperatureK: 358}},
		{{UntilYears: 3, TemperatureK: 368}, {UntilYears: 100, TemperatureK: 338}},
	}
	fleetPatterns = []string{"healthy", "column"}
	fleetAllocs   = []string{"utilization-aware", "baseline"}
	fleetHorizons = []float64{10, 15}
)

const (
	// fleetDevicesMin and fleetDevicesMax bound a stream request's fleet.
	fleetDevicesMin = 48
	fleetDevicesMax = 96
	// fleetFreshShare is the device share of each stream request's
	// never-seen profile: work no store can serve, in a fixed proportion.
	fleetFreshShare = 0.125
	// fleetSweepDevices is the fleet size of a warm-up request; drawn over
	// the whole catalog it reaches every combination with near certainty.
	fleetSweepDevices = 256
)

// fleetWarmupRequests is the number of catalog sweeps: one per allocator
// and horizon.
var fleetWarmupRequests = len(fleetAllocs) * len(fleetHorizons)

// fleetWarmupRequest generates warm-up request k: one allocator and
// horizon over every mix, profile and pattern of the catalog, shortest
// horizon first, so the stores hold the catalog before the timed phase.
func fleetWarmupRequest(seed uint64, k int) service.FleetRequest {
	r := newRand(seed, 100+uint64(k))
	var req service.FleetRequest
	req.Devices = fleetSweepDevices
	req.Seed = r.Uint64()>>1 | 1
	req.Base.Allocator = fleetAllocs[k%len(fleetAllocs)]
	req.Base.EpochYears = 0.5
	req.Base.MaxYears = fleetHorizons[k/len(fleetAllocs)]
	for _, m := range fleetMixes {
		req.Mixes = append(req.Mixes, service.WeightedMix{Benchmarks: m})
	}
	for _, p := range fleetProfiles {
		req.Profiles = append(req.Profiles, service.WeightedProfile{Phases: p})
	}
	for _, p := range fleetPatterns {
		req.Patterns = append(req.Patterns, service.WeightedPattern{Pattern: p})
	}
	return req
}

// fleetRequest generates request i of the seed's timed stream: two mixes,
// two profiles plus one never-seen profile, and one dead pattern, for one
// allocator and horizon. A request is keyed on (seed, i) alone, so request
// i is the same however many requests precede it.
func fleetRequest(seed uint64, i int) service.FleetRequest {
	r := newRand(seed, 1000+uint64(i))
	pick := func(n, k int) []int { return r.Perm(n)[:k] }

	var req service.FleetRequest
	req.Devices = fleetDevicesMin + r.IntN(fleetDevicesMax-fleetDevicesMin+1)
	req.Seed = r.Uint64()>>1 | 1
	req.Base.Allocator = fleetAllocs[r.IntN(len(fleetAllocs))]
	req.Base.EpochYears = 0.5
	req.Base.MaxYears = fleetHorizons[r.IntN(len(fleetHorizons))]
	for _, m := range pick(len(fleetMixes), 2) {
		req.Mixes = append(req.Mixes, service.WeightedMix{Benchmarks: fleetMixes[m]})
	}
	for _, p := range pick(len(fleetProfiles), 2) {
		req.Profiles = append(req.Profiles, service.WeightedProfile{
			Weight: (1 - fleetFreshShare) / 2,
			Phases: fleetProfiles[p],
		})
	}
	// The never-seen profile: a temperature step no catalog profile and,
	// with overwhelming probability, no earlier request uses.
	req.Profiles = append(req.Profiles, service.WeightedProfile{
		Weight: fleetFreshShare,
		Phases: []agingcgra.LifetimePhase{
			{UntilYears: 1 + float64(r.IntN(4)), TemperatureK: 330 + float64(r.IntN(40000))/1000},
			{UntilYears: 100},
		},
	})
	req.Patterns = []service.WeightedPattern{{Pattern: fleetPatterns[r.IntN(len(fleetPatterns))]}}
	return req
}

// body renders a request as the JSON sent over the wire.
func body(req service.FleetRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain values only; cannot fail
	}
	return b
}
