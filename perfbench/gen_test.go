package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// stream renders everything the generator feeds the program for one seed:
// the life-wear batch, the reproduction order, the fleet warm-up sweeps
// and the first timed fleet requests.
func stream(t *testing.T, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range []any{lifeWearConfigs(seed), reproOrder(seed)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < fleetWarmupRequests; k++ {
		b.Write(body(fleetWarmupRequest(seed, k)))
	}
	for i := 0; i < 64; i++ {
		b.Write(body(fleetRequest(seed, i)))
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		if a, b := stream(t, seed), stream(t, seed); !bytes.Equal(a, b) {
			t.Errorf("seed %d: two generations differ", seed)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	if bytes.Equal(stream(t, 1), stream(t, 2)) {
		t.Fatal("seeds 1 and 2 generate the same inputs")
	}
	// Every timed fleet request of a stream is distinct: each carries its
	// own never-seen profile.
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		k := string(body(fleetRequest(1, i)))
		if seen[k] {
			t.Fatalf("request %d repeats an earlier request", i)
		}
		seen[k] = true
	}
}

func TestReproOrderIsAPermutation(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		got := reproOrder(seed)
		slices.Sort(got)
		want := slices.Clone(reproExperiments)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: order %v is not a permutation of %v", seed, reproOrder(seed), reproExperiments)
		}
	}
}

func TestRequestsDrawFromTheCatalog(t *testing.T) {
	for i := 0; i < 64; i++ {
		req := fleetRequest(3, i)
		if req.Devices < fleetDevicesMin || req.Devices > fleetDevicesMax {
			t.Errorf("request %d: %d devices", i, req.Devices)
		}
		if len(req.Mixes) != 2 || len(req.Profiles) != 3 || len(req.Patterns) != 1 {
			t.Errorf("request %d: %d mixes, %d profiles, %d patterns", i, len(req.Mixes), len(req.Profiles), len(req.Patterns))
		}
	}
}
