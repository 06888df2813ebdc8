package service

import (
	"encoding/json"
	"net/http"

	"agingcgra/internal/lifetime"
	"agingcgra/internal/trace"
)

// streamResultLine is the terminal NDJSON line of a successful stream.
type streamResultLine struct {
	Kind   string      `json:"kind"`
	Result *ResultJSON `json:"result"`
}

// streamErrorLine is the terminal NDJSON line of a stream that failed
// after events were already sent (the status line is long committed, so
// the error travels in-band).
type streamErrorLine struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// handleLifetimeStream runs one scenario and streams its observability
// events as NDJSON — one trace.Event per line, in emission order, with a
// terminal {"kind":"result",...} line carrying the full Result. The body
// is the same scenario object as /v1/lifetime.
//
// The stream is a pure function of (request body, seed): the simulator's
// event-determinism contract makes the bytes identical at any worker
// count and any epoch-store temperature. The run feeds and consults the
// shared epoch store and GPP-reference memo like every other endpoint, so
// streamed scenarios stay cheap and keep warming the same state as
// everything else.
//
// Cancellation follows the pool contract: a disconnected client's queued
// run is skipped (nothing was sent, so the handler reports 499
// server-side); a run already executing completes on the worker, its
// remaining writes failing silently against the dead connection.
func (s *Server) handleLifetimeStream(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, err := s.scenario(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	flusher, _ := w.(http.Flusher)
	// started flips on the first event, committing the 200 status line.
	// It is written by the pool worker running the scenario and read here
	// after ForEach returns; the pool's completion WaitGroup orders the
	// two, so there is no race — and no concurrent writer either, since
	// the handler goroutine only writes after ForEach returns.
	started := false
	writeLine := func(v any) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		// Write errors (client gone mid-stream) are deliberately dropped:
		// the simulation must finish either way to keep the shared epoch
		// store consistent with a non-canceled run.
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	sc.Trace = trace.Func(func(ev trace.Event) { writeLine(ev) })

	var res *ResultJSON
	err = s.pool.ForEach(r.Context(), 1, func(int) error {
		var err error
		res, err = lifetime.Run(sc)
		return err
	})
	switch {
	case err != nil && !started:
		// Nothing sent yet: a normal JSON error response still fits.
		writeError(w, failStatus(err), err.Error())
	case err != nil:
		writeLine(streamErrorLine{Kind: "error", Error: err.Error()})
	default:
		writeLine(streamResultLine{Kind: "result", Result: res})
	}
}
