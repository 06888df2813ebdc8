package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFleetMixedEndToEnd runs a short fleet-mixed run through the command's
// entry point: server boot, warm-up, the closed loop, the cold recheck and
// the result line.
func TestFleetMixedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and runs a timed phase")
	}
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		args := []string{"-workload", "fleet-mixed", "-seed", "3", "-seconds", "1", "-trace", traced}
		if err := mainErr(args, &out, t.TempDir()); err != nil {
			t.Fatalf("trace=%s: %v\n%s", traced, err, out.String())
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res line
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("trace=%s: last line is not the result: %v", traced, err)
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
			t.Errorf("trace=%s: result %+v\n%s", traced, res, out.String())
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "life-wear", "-trace", "2"},
	} {
		if err := mainErr(args, &bytes.Buffer{}, t.TempDir()); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
