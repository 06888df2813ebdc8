package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/searchcost"
)

// scanClock accumulates the host time spent inside allocator calls: Next
// (the per-offload pivot choice, where the explorer's scans run) and
// RemapConfig (the remapper's shape rescue scan). Safe for concurrent use.
type scanClock struct {
	nextNs, nextCalls   atomic.Int64
	remapNs, remapCalls atomic.Int64
}

// Optional allocator interfaces the engine and controller probe for.
type capability uint8

const (
	capHealth capability = 1 << iota
	capWear
	capStress
	capRemap
	capSearch
)

func capabilities(a alloc.Allocator) capability {
	var c capability
	if _, ok := a.(alloc.HealthSetter); ok {
		c |= capHealth
	}
	if _, ok := a.(alloc.WearSetter); ok {
		c |= capWear
	}
	if _, ok := a.(alloc.StressObserver); ok {
		c |= capStress
	}
	if _, ok := a.(alloc.ConfigRemapper); ok {
		c |= capRemap
	}
	if _, ok := a.(searchcost.Instrumented); ok {
		c |= capSearch
	}
	return c
}

// adaptiveCaps is the interface set of the wear-aware explorer.
const adaptiveCaps = capHealth | capWear | capStress | capSearch

// wrapTimed returns an allocator that forwards every call to a and times
// Next and RemapConfig. The wrapper implements exactly the optional
// interfaces a implements: the controller, the engine and the lifetime
// memo key all switch on them, so a wrapper that added or hid one would
// change the simulation it is meant to observe. Interface sets without a
// wrapper type are an error, not a silent approximation.
func wrapTimed(a alloc.Allocator, clock *scanClock) (alloc.Allocator, error) {
	base := &timedAlloc{a: a, clock: clock}
	switch capabilities(a) {
	case 0:
		return base, nil
	case adaptiveCaps:
		return newTimedAdaptive(base), nil
	case adaptiveCaps | capRemap:
		return &timedRemapper{timedAdaptive: newTimedAdaptive(base), rm: a.(alloc.ConfigRemapper)}, nil
	}
	return nil, fmt.Errorf("no timing wrapper forwards exactly the interfaces of allocator %q", a.Name())
}

// timedFactory wraps every allocator f builds. Check the geometry with
// wrapTimed first: the factory signature cannot return an error, so an
// unsupported allocator panics here (dse.ForEach turns that into the
// scenario's error).
func timedFactory(f dse.AllocatorFactory, clock *scanClock, onBuild func()) dse.AllocatorFactory {
	return func(g fabric.Geometry) alloc.Allocator {
		if onBuild != nil {
			onBuild()
		}
		a, err := wrapTimed(f(g), clock)
		if err != nil {
			panic(err)
		}
		return a
	}
}

type timedAlloc struct {
	a     alloc.Allocator
	clock *scanClock
}

func (t *timedAlloc) Name() string { return t.a.Name() }

func (t *timedAlloc) Next(cfg *fabric.Config) fabric.Offset {
	start := time.Now()
	off := t.a.Next(cfg)
	t.clock.nextNs.Add(int64(time.Since(start)))
	t.clock.nextCalls.Add(1)
	return off
}

// timedAdaptive forwards the explorer's interface set.
type timedAdaptive struct {
	*timedAlloc
	hs alloc.HealthSetter
	ws alloc.WearSetter
	so alloc.StressObserver
	in searchcost.Instrumented
}

func newTimedAdaptive(base *timedAlloc) *timedAdaptive {
	return &timedAdaptive{
		timedAlloc: base,
		hs:         base.a.(alloc.HealthSetter),
		ws:         base.a.(alloc.WearSetter),
		so:         base.a.(alloc.StressObserver),
		in:         base.a.(searchcost.Instrumented),
	}
}

func (t *timedAdaptive) SetHealth(h *fabric.Health) { t.hs.SetHealth(h) }
func (t *timedAdaptive) SetWear(w *fabric.Wear)     { t.ws.SetWear(w) }
func (t *timedAdaptive) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	t.so.ObserveStress(cells, off, cycles)
}
func (t *timedAdaptive) SearchCounts() searchcost.Counts { return t.in.SearchCounts() }

// timedRemapper adds the shape-adaptive remapper's RemapConfig.
type timedRemapper struct {
	*timedAdaptive
	rm alloc.ConfigRemapper
}

func (t *timedRemapper) RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (*fabric.Config, fabric.Offset, bool) {
	start := time.Now()
	mapped, mappedOff, ok := t.rm.RemapConfig(cfg, off, placed)
	t.clock.remapNs.Add(int64(time.Since(start)))
	t.clock.remapCalls.Add(1)
	return mapped, mappedOff, ok
}
