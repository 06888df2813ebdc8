package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read run's stdout while run is still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"positional"}, &out, &errOut); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatal("positional arguments accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:1"}, &out, &errOut); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// TestHTTPServerTimeouts pins the daemon's connection timeouts: a client
// that never finishes its headers, or parks an idle keep-alive connection,
// is cut off instead of holding the connection open indefinitely.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.Handler == nil {
		t.Error("handler not attached")
	}
}

// TestRunServesAndShutsDownGracefully boots the daemon on a free port,
// queries it over real HTTP, then cancels the context and expects a clean
// drain.
func TestRunServesAndShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout syncBuffer
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stdout, &stderr)
	}()

	// Wait for the listen line and extract the bound address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		if s := stdout.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post(fmt.Sprintf("http://%s/v1/lifetime", addr), "application/json",
		strings.NewReader(`{"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "timeline") {
		t.Fatalf("lifetime: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; stderr=%q", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Fatalf("missing drain confirmation: %q", stdout.String())
	}
}
