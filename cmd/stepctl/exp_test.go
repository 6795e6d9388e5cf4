package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"step/internal/experiments"
	"step/internal/harness"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestExpOutWritesTableCSV(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return exp([]string{"-quick", "-fig", "table1", "-out", dir})
	})
	r, _ := experiments.Lookup("table1")
	tb, err := r.Run(harness.Suite{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != tb.CSV() {
		t.Fatalf("table1.csv differs from Table.CSV():\n%s\nwant:\n%s", got, tb.CSV())
	}
	if !strings.HasPrefix(out, tb.String()+"\n") {
		t.Fatalf("stdout does not start with the rendered table:\n%s", out)
	}
}

func TestExpListPrintsEveryID(t *testing.T) {
	out := captureStdout(t, func() error { return exp([]string{"-list"}) })
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(all), out)
	}
	for i, r := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != r.ID {
			t.Fatalf("line %d = %q, want ID %s", i, lines[i], r.ID)
		}
	}
}
