package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// golden.json pins, per workload, the output digest of each seed it lists
// ("*" pins a workload whose outputs do not depend on the seed). A run on
// a pinned seed must reproduce its digest; a run on any other seed checks
// that every pass reproduces its first one.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return g
}()

// pinnedDigest is the pinned digest of the workload's outputs for seed.
func pinnedDigest(workload string, seed uint64) (string, bool) {
	byKey := golden[workload]
	if d, ok := byKey["*"]; ok {
		return d, true
	}
	d, ok := byKey[strconv.FormatUint(seed, 10)]
	return d, ok
}

// checkGolden compares an output digest with the pinned one, if any.
func (r *run) checkGolden(what, digest string) {
	fmt.Fprintf(r.log, "%s digest %s", what, digest)
	want, ok := pinnedDigest(r.workload, r.seed)
	switch {
	case !ok:
		fmt.Fprintf(r.log, " (seed not pinned: checked for repeatability only)\n")
	case want == digest:
		fmt.Fprintf(r.log, " (matches the pinned digest)\n")
	default:
		fmt.Fprintln(r.log)
		r.fail("%s digest %s, pinned %s", what, digest, want)
	}
}
