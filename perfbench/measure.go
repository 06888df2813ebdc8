package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// metric is one named measurement of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// exact is one deterministic work counter: it must repeat bit-for-bit for
// the same code and seed, so a difference is a broken benchmark or a
// broken program, never noise.
type exact struct {
	Name  string
	Value float64
}

// run collects what one benchmark invocation measured and checked.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	log      io.Writer
	// stateDir holds the exact counters earlier runs recorded, filed
	// under code, the identity of the code under test.
	stateDir string
	code     string

	attempted, failed int
	problems          []string
	metrics           []metric
	exacts            []exact
}

// fail records a failed correctness check; the run then reports
// "correct": false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.log, "CHECK FAILED:", msg)
}

func (r *run) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v})
}

// addExact records an exact counter for the cross-run comparison and
// prints it; a traced run also reports it as a per-layer metric.
func (r *run) addExact(name, unit string, v float64) {
	fmt.Fprintf(r.log, "exact %s = %v\n", name, v)
	r.exacts = append(r.exacts, exact{Name: name, Value: v})
	if r.trace {
		r.add(name, unit, v)
	}
}

// sameExact checks that every repetition produced the same counters.
func (r *run) sameExact(what string, reps [][]exact) {
	for i := 1; i < len(reps); i++ {
		if !slices.Equal(reps[0], reps[i]) {
			r.fail("%s: exact counters differ between repetitions 1 and %d: %v vs %v", what, i+1, reps[0], reps[i])
		}
	}
}

// checkExactAcrossRuns compares this run's exact counters with those an
// earlier run of the same code recorded for the same workload and seed,
// then records any counters not seen before. Runs of different code keep
// separate records, so a change that moves a counter is reported as a
// per-layer difference, not as a broken run.
func (r *run) checkExactAcrossRuns() error {
	path := filepath.Join(r.stateDir, fmt.Sprintf("%s-%d-%s.json", r.workload, r.seed, r.code))
	var saved []exact
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &saved); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	merged := append([]exact(nil), saved...)
	for _, e := range r.exacts {
		i := slices.IndexFunc(saved, func(s exact) bool { return s.Name == e.Name })
		if i < 0 {
			merged = append(merged, e)
			continue
		}
		if saved[i].Value != e.Value {
			r.fail("exact counter %s = %v, but an earlier run of the same code and seed measured %v",
				e.Name, e.Value, saved[i].Value)
		}
	}
	if len(merged) == len(saved) {
		return nil
	}
	b, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.stateDir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// codeID identifies the code under test by the SHA-256 of the running
// binary, which the Go toolchain builds deterministically from the sources.
func codeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// line is the final JSON line of a run.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name and unit, then the result line.
func (r *run) emit(w io.Writer) error {
	out := line{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(r.metrics)),
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-26s %16.6g %s\n", m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeIt returns how long f took, in seconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// digestJSON is the SHA-256 of v's JSON encoding.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
