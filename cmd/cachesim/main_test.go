package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	runErr := <-errCh
	os.Stdout = old
	_ = w.Close()
	out := make([]byte, 1<<20)
	n, _ := r.Read(out)
	_ = r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return string(out[:n])
}

func writeTestTrace(t *testing.T, format string) string {
	t.Helper()
	tr, err := workload.Standard(workload.ProfileServer, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t."+format)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if format == "txt" {
		err = trace.WriteText(f, tr)
	} else {
		err = trace.WriteBinary(f, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClientModeFromGeneratedWorkload(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-profile", "server", "-opens", "2000", "-mode", "client", "-capacity", "100", "-group", "5"})
	})
	for _, want := range []string{"demand fetches", "hit rate", "prefetch"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestClientModeFromTraceFiles(t *testing.T) {
	for _, format := range []string{"txt", "trc"} {
		path := writeTestTrace(t, format)
		out := captureStdout(t, func() error {
			return run([]string{"-trace", path, "-mode", "client", "-capacity", "50"})
		})
		if !strings.Contains(out, "trace: 2000 opens") {
			t.Errorf("%s: output missing trace size:\n%s", format, out)
		}
	}
}

func TestServerMode(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-profile", "server", "-opens", "2000", "-mode", "server",
			"-filter", "100", "-server-capacity", "200", "-scheme", "agg", "-piggyback"})
	})
	if !strings.Contains(out, "server hit rate") {
		t.Errorf("output missing hit rate:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "bogus"},
		{"-trace", "/no/such/file"},
		{"-profile", "bogus"},
		{"-mode", "client", "-capacity", "0", "-opens", "100"},
		{"-mode", "server", "-scheme", "bogus", "-opens", "100"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// Server mode prices §4.3's hierarchy: the opens both levels missed go to
// the backend, and the mean open latency is printed beside the hit rate.
func TestServerModeLatency(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-profile", "workstation", "-opens", "3000", "-mode", "server",
			"-filter", "100", "-server-capacity", "200", "-scheme", "agg"})
	})
	for _, want := range []string{"server hit rate", "backend fetches", "mean open latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
