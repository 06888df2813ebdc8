package lifetime

import (
	"encoding/json"
	"testing"

	"agingcgra/internal/aging"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/memostore"
	recov "agingcgra/internal/recover"
)

func sharedMemoScenario(maxYears float64) Scenario {
	return Scenario{
		Geom:        fabric.NewGeometry(2, 8),
		Factory:     dse.BaselineFactory,
		Mix:         []string{"crc32"},
		EpochYears:  0.5,
		MaxYears:    maxYears,
		Fingerprint: "test-shared-memo-crc32-2x8-baseline",
	}
}

// TestSharedEpochMemoWarmEqualsCold pins the service's determinism
// foundation: a run against a warm cross-request store is byte-identical to
// a cold run, and the warm run actually hits the store.
func TestSharedEpochMemoWarmEqualsCold(t *testing.T) {
	cold := sharedMemoScenario(3)
	coldRes, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, _ := json.Marshal(coldRes)

	store := memostore.New(0)
	first := sharedMemoScenario(3)
	first.EpochMemo = store
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := store.Stats().Misses

	warm := sharedMemoScenario(3)
	warm.EpochMemo = store
	warmRes, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, _ := json.Marshal(warmRes)
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("warm-store run differs from cold run")
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm run never hit the shared store: %+v", st)
	}
	if st.Misses != missesAfterFirst {
		t.Fatalf("warm run of an identical scenario recomputed epochs: %+v", st)
	}
}

// TestSharedEpochMemoSharesAcrossHorizons pins the one deliberate
// fingerprint exclusion: scenarios differing only in MaxYears share a
// trajectory prefix, so a longer run reuses the shorter run's epochs and
// still matches its own cold computation byte for byte.
func TestSharedEpochMemoSharesAcrossHorizons(t *testing.T) {
	store := memostore.New(0)
	short := sharedMemoScenario(2)
	short.EpochMemo = store
	if _, err := Run(short); err != nil {
		t.Fatal(err)
	}

	long := sharedMemoScenario(4)
	long.EpochMemo = store
	longRes, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Hits == 0 {
		t.Fatal("longer horizon never reused the shorter run's epochs")
	}

	coldLong, err := Run(sharedMemoScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(longRes)
	b, _ := json.Marshal(coldLong)
	if string(a) != string(b) {
		t.Fatal("store-assisted long run differs from cold long run")
	}
}

// TestSharedEpochMemoIgnoredWithRecovery pins the soundness guard: a
// recovery monitor's cross-epoch state mutates inside runEpoch, so such
// scenarios must never consult the shared store.
func TestSharedEpochMemoIgnoredWithRecovery(t *testing.T) {
	store := memostore.New(0)
	sc := sharedMemoScenario(2)
	sc.EpochMemo = store
	sc.Recovery = &recov.Policy{}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("recovery report missing")
	}
	st := store.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("recovery scenario touched the shared epoch store: %+v", st)
	}
}

// TestSharedEpochMemoSharesAcrossTrajectories pins the content key:
// scenarios under one Fingerprint that differ in inputs the epoch
// co-simulation never reads — operating point, phase profile, epoch length,
// cells dead from the start — follow different trajectories, yet share every
// epoch whose observed fabric state matches. Each variant must hit the store
// warmed by the base scenario and still match its own cold run byte for
// byte. A key built from state versions fails here: equal version tuples
// stand for different states in different trajectories.
func TestSharedEpochMemoSharesAcrossTrajectories(t *testing.T) {
	hot := aging.DefaultConditions()
	hot.TemperatureK = 365
	// The baseline scenario's first aging deaths, injected as initial dead
	// cells, put the variant straight into a state the base run observed.
	coldBase := sharedMemoScenario(8)
	coldBase.Fingerprint = ""
	baseRes, err := Run(coldBase)
	if err != nil {
		t.Fatal(err)
	}
	var firstDeaths []fabric.Cell
	for _, rec := range baseRes.Timeline {
		if len(rec.Deaths) > 0 {
			firstDeaths = rec.Deaths
			break
		}
	}
	if firstDeaths == nil {
		t.Fatal("base scenario saw no deaths; lengthen its horizon")
	}

	cases := []struct {
		name    string
		factory dse.AllocatorFactory
		vary    func(*Scenario)
	}{
		{"health/cond", dse.BaselineFactory, func(sc *Scenario) { sc.Cond = hot }},
		{"health/profile", dse.BaselineFactory, func(sc *Scenario) {
			sc.Profile = []Phase{{UntilYears: 2, Cond: aging.DefaultConditions()}, {UntilYears: 8, Cond: hot}}
		}},
		{"health/epoch", dse.BaselineFactory, func(sc *Scenario) { sc.EpochYears = 0.25 }},
		{"health/initial-dead", dse.BaselineFactory, func(sc *Scenario) { sc.InitialDead = firstDeaths }},
		{"wear/cond", dse.ExploreFactory, func(sc *Scenario) { sc.Cond = hot }},
		{"wear/profile", dse.ExploreFactory, func(sc *Scenario) {
			sc.Profile = []Phase{{UntilYears: 2, Cond: aging.DefaultConditions()}, {UntilYears: 8, Cond: hot}}
		}},
		{"wear/epoch", dse.ExploreFactory, func(sc *Scenario) { sc.EpochYears = 0.25 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Scenario {
				sc := sharedMemoScenario(8)
				sc.Factory = tc.factory
				return sc
			}
			store := memostore.New(0)
			base := mk()
			base.EpochMemo = store
			if _, err := Run(base); err != nil {
				t.Fatal(err)
			}
			hitsAfterBase := store.Stats().Hits

			variant := mk()
			tc.vary(&variant)
			variant.EpochMemo = store
			warmRes, err := Run(variant)
			if err != nil {
				t.Fatal(err)
			}
			if store.Stats().Hits == hitsAfterBase {
				t.Fatalf("variant never hit the store the base scenario warmed: %+v", store.Stats())
			}

			cold := mk()
			tc.vary(&cold)
			cold.Fingerprint = ""
			coldRes, err := Run(cold)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(warmRes)
			b, _ := json.Marshal(coldRes)
			if string(a) != string(b) {
				t.Fatalf("store-assisted variant differs from its cold run:\nwarm %s\ncold %s", a, b)
			}
		})
	}
}
