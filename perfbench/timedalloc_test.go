package main

import (
	"encoding/json"
	"testing"

	"agingcgra"
)

// TestWrapperForwardsExactInterfaces checks, for every named allocator,
// that the timing wrapper implements exactly the optional interfaces of
// the allocator it wraps, or refuses it.
func TestWrapperForwardsExactInterfaces(t *testing.T) {
	g := agingcgra.NewGeometry(2, 16)
	for _, name := range agingcgra.AllocatorNames() {
		a, err := agingcgra.NewAllocator(name, g)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapTimed(a, &scanClock{})
		if err != nil {
			t.Logf("%s: %v", name, err)
			continue
		}
		if got, want := capabilities(w), capabilities(a); got != want {
			t.Errorf("%s: wrapper capabilities %05b, allocator %05b", name, got, want)
		}
		if w.Name() != a.Name() {
			t.Errorf("%s: wrapper named %q, allocator %q", name, w.Name(), a.Name())
		}
	}
}

// TestTracedRunIsIdentical runs short scenarios of every life-wear
// allocator family untraced and through the traced seams, and requires
// byte-identical Results.
func TestTracedRunIsIdentical(t *testing.T) {
	configs := lifeWearConfigs(5)
	for i := range configs {
		configs[i].MaxYears = 2
	}
	plain, err := agingcgra.RunLifetimes(configs, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := &lifeWear{configs: configs, workers: 2}
	layers := &lifeWearLayers{}
	traced, err := w.tracedPass(layers)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(traced)
	if string(a) != string(b) {
		t.Fatal("traced Results differ from untraced ones")
	}
	if layers.scan.nextCalls.Load() == 0 || layers.scan.remapCalls.Load() == 0 {
		t.Errorf("wrapper timed %d Next and %d RemapConfig calls; want both > 0",
			layers.scan.nextCalls.Load(), layers.scan.remapCalls.Load())
	}
	var epochs int64
	for _, c := range layers.epochs {
		epochs += c.simEpochs + c.replayEpochs
	}
	if want := int64(len(configs) * 8); epochs != want {
		t.Errorf("epoch clocks saw %d epochs, want %d", epochs, want)
	}
}
