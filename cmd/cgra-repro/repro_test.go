package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden reproduction report")

// TestReproTinyGolden runs the full reproduction at the tiny workload scale
// and compares the report byte for byte against the committed golden. Every
// experiment is deterministic and serial == parallel, so any drift is a
// real change in a simulated result or in the rendering (regenerate
// deliberately with `go test -run ReproTinyGolden -update`).
func TestReproTinyGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-size", "tiny"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "repro_tiny.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("cgra-repro -size tiny drifted from %s (regenerate deliberately with -update)", golden)
	}
}

// TestRunRejectsUnknownSize pins the error path that used to exit the
// process: an unknown -size is returned as an error.
func TestRunRejectsUnknownSize(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-size", "huge"}); err == nil {
		t.Fatal("unknown size accepted")
	}
}
