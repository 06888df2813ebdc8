package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"agingcgra/internal/memostore"
	"agingcgra/internal/prog"
	"agingcgra/internal/service"
)

// fleetMixed is the fleet-mixed workload: a closed loop of maxLoad clients
// sending /v1/fleet requests over loopback HTTP to one in-process server
// with maxLoad pool workers.
type fleetMixed struct {
	srv     *fleetServer
	seed    uint64
	warm    [][]byte // warm-up response bodies, by request index
	combos  []int    // warm-up combos, by request index
	digests []string // warm-up digest of every setup repetition
}

const (
	// fleetRecheck is how many timed requests are re-sent to a cold server
	// after the timed phase, to check that warm-store responses are
	// byte-identical to fresh computation.
	fleetRecheck = 2
	// fleetExactPrefix is how many leading timed requests the exact
	// combos-per-request counter covers; every run sends at least these,
	// however short -seconds is.
	fleetExactPrefix = 32
)

func (w *fleetMixed) kernels() ([]string, prog.Size) {
	var names []string
	seen := map[string]bool{}
	for _, mix := range fleetMixes {
		for _, n := range mix {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names, prog.Tiny
}

// fleetServer is one in-process service instance on a loopback port,
// with one client (and so one connection) per load slot.
type fleetServer struct {
	svc     *service.Server
	hs      *http.Server
	url     string
	served  chan error
	clients []*http.Client
}

func startServer() (*fleetServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &fleetServer{
		svc:    service.New(service.Options{Workers: loadWorkers()}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < loadWorkers(); i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

// stop shuts the server down and waits for it and its pool to finish.
func (s *fleetServer) stop() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.svc.Close()
}

// post sends one fleet request and returns the response body.
func (s *fleetServer) post(client int, body []byte) ([]byte, error) {
	resp, err := s.clients[client].Post(s.url+"/v1/fleet", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

type storeStats struct {
	Results memostore.Stats `json:"results"`
	Epochs  memostore.Stats `json:"epochs"`
}

func (s *fleetServer) stats(client int) (storeStats, error) {
	var st storeStats
	resp, err := s.clients[client].Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkResponse checks a response against the request it answers.
func checkResponse(req service.FleetRequest, body []byte) (combos int, err error) {
	var resp service.FleetResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	switch {
	case resp.Devices != req.Devices || resp.Seed != req.Seed:
		return 0, fmt.Errorf("answers devices=%d seed=%d, asked %d/%d", resp.Devices, resp.Seed, req.Devices, req.Seed)
	case resp.Combos < 1 || resp.Combos > req.Devices:
		return 0, fmt.Errorf("%d combos for %d devices", resp.Combos, req.Devices)
	case len(resp.Deaths) != 1 || len(resp.Throughput) != 3:
		return 0, fmt.Errorf("%d death curves and %d throughput points, want 1 and 3", len(resp.Deaths), len(resp.Throughput))
	}
	return resp.Combos, nil
}

// closedLoop drives the load slots against srv until next() reports no
// more requests; each slot sends its next request as soon as the previous
// one completes. do runs on the slot's goroutine.
func closedLoop(slots int, next func() (int, bool), do func(slot, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < slots; c++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				do(slot, i)
			}
		}(c)
	}
	wg.Wait()
}

// setup boots a server and runs the warm-up requests.
func (w *fleetMixed) setup(r *run) error {
	w.seed = r.seed
	srv, err := startServer()
	if err != nil {
		return err
	}
	w.srv = srv
	n := fleetWarmupRequests
	w.warm = make([][]byte, n)
	w.combos = make([]int, n)
	errs := make([]error, n)
	var next atomic.Int64
	closedLoop(len(srv.clients), func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}, func(slot, i int) {
		req := fleetWarmupRequest(w.seed, i)
		resp, err := srv.post(slot, body(req))
		if err == nil {
			w.combos[i], err = checkResponse(req, resp)
		}
		w.warm[i], errs[i] = resp, err
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.digests = append(w.digests, digestBytes(bytes.Join(w.warm, []byte{'\n'})))
	return nil
}

func (w *fleetMixed) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// fleetSample is one timed request.
type fleetSample struct {
	index   int
	latency float64
	body    []byte
	combos  int
	err     error
}

func (w *fleetMixed) measure(r *run) error {
	for i, d := range w.digests {
		if d != w.digests[0] {
			r.fail("fleet-mixed warm-up digest of setup %d is %s, setup 1 gave %s", i+1, d, w.digests[0])
		}
	}
	r.checkGolden("fleet-mixed warm-up responses", w.digests[0])

	before, err := w.srv.stats(0)
	if err != nil {
		return err
	}
	var (
		mu      sync.Mutex
		samples []fleetSample
		n       atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	closedLoop(len(w.srv.clients), func() (int, bool) {
		i := int(n.Add(1) - 1)
		return i, i < fleetExactPrefix || time.Now().Before(deadline)
	}, func(slot, i int) {
		req := fleetRequest(w.seed, i)
		b := body(req)
		t0 := time.Now()
		resp, err := w.srv.post(slot, b)
		latency := time.Since(t0).Seconds()
		combos := 0
		if err == nil {
			combos, err = checkResponse(req, resp)
		}
		s := fleetSample{index: i, latency: latency, body: resp, combos: combos, err: err}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	})
	wall := time.Since(start).Seconds()
	after, err := w.srv.stats(0)
	if err != nil {
		return err
	}

	var lat []float64
	recheck := map[int][]byte{}
	prefixCombos, prefixDone := 0, 0
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.failed++
			r.fail("fleet-mixed request %d: %v", s.index, s.err)
			continue
		}
		lat = append(lat, s.latency)
		if s.index < fleetRecheck {
			recheck[s.index] = s.body
		}
		if s.index < fleetExactPrefix {
			prefixCombos += s.combos
			prefixDone++
		}
	}
	if prefixDone == fleetExactPrefix {
		r.addExact("service.combos_per_req", "count", float64(prefixCombos)/fleetExactPrefix)
	} else {
		r.fail("fleet-mixed: only %d of the first %d timed requests completed", prefixDone, fleetExactPrefix)
	}
	if err := w.recheckCold(r, recheck); err != nil {
		return err
	}
	if len(lat) == 0 {
		return fmt.Errorf("fleet-mixed: no request succeeded")
	}
	fmt.Fprintf(r.log, "fleet-mixed: %d timed requests over %d clients in %.2f s; latency over %d samples\n",
		len(samples), len(w.srv.clients), wall, len(lat))
	if !r.trace {
		r.add("work_per_s", "1/s", float64(len(lat))/wall)
		r.add("latency_p50_ms", "ms", 1e3*median(lat))
		r.add("latency_p90_ms", "ms", 1e3*percentile(lat, 90))
		return nil
	}
	res := statsDelta(after.Results, before.Results)
	ep := statsDelta(after.Epochs, before.Epochs)
	r.add("memo.results.hit_rate", "frac", res.HitRate())
	r.add("memo.epochs.hit_rate", "frac", ep.HitRate())
	r.add("memo.evictions", "count", float64(res.Evictions+ep.Evictions))
	// The service exposes no trace seam: a traced run sends the same
	// requests as an untraced one, so tracing costs nothing here.
	r.add("trace.overhead_frac", "frac", 0)
	return nil
}

// recheckCold re-sends timed requests to a fresh server, whose stores are
// empty, and checks the responses are byte-identical to the warm ones.
func (w *fleetMixed) recheckCold(r *run, bodies map[int][]byte) error {
	cold, err := startServer()
	if err != nil {
		return err
	}
	defer cold.stop()
	for i := 0; i < fleetRecheck; i++ {
		warm, ok := bodies[i]
		if !ok {
			continue // failed or never sent; already counted
		}
		r.attempted++
		got, err := cold.post(0, body(fleetRequest(w.seed, i)))
		switch {
		case err != nil:
			r.failed++
			r.fail("fleet-mixed cold recheck of request %d: %v", i, err)
		case !bytes.Equal(got, warm):
			r.failed++
			r.fail("fleet-mixed request %d: warm-store response differs from a cold server's", i)
		}
	}
	return nil
}

// statsDelta is the store activity between two /v1/stats snapshots.
func statsDelta(after, before memostore.Stats) memostore.Stats {
	return memostore.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}
