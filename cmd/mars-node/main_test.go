package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// helperArgs returns the arguments after "--" when the test binary runs as
// a child of TestStartChildRelaysEveryLine, or nil in a normal test run.
func helperArgs() []string {
	for i, a := range os.Args {
		if a == "--" {
			return os.Args[i+1:]
		}
	}
	return nil
}

// TestRelayHelperChild is the child process body, not a test: re-executed
// with "-- N", the test binary prints N lines and exits at once, racing
// its own output against the launcher's Wait.
func TestRelayHelperChild(t *testing.T) {
	args := helperArgs()
	if len(args) != 1 {
		t.Skip("child process body; runs only when re-executed by TestStartChildRelaysEveryLine")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		os.Exit(2)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("line %d\n", i)
	}
	os.Exit(0)
}

// TestStartChildRelaysEveryLine pins the relay/Wait ordering: a child that
// prints and exits immediately must have every stdout line relayed and
// written to its log, on every run.
func TestStartChildRelaysEveryLine(t *testing.T) {
	const (
		runs  = 20
		lines = 200
	)
	dir := t.TempDir()
	var want, wantLog bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&want, "[child] line %d\n", i)
		fmt.Fprintf(&wantLog, "line %d\n", i)
	}
	for run := 0; run < runs; run++ {
		var out bytes.Buffer
		c, err := startChild(&out, dir, "child", os.Args[0],
			"-test.run=^TestRelayHelperChild$", "--", strconv.Itoa(lines))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-c.done; err != nil {
			t.Fatalf("run %d: child failed: %v", run, err)
		}
		c.stdin.Close()
		if out.String() != want.String() {
			t.Fatalf("run %d: relayed %d of %d bytes; lines were lost", run, out.Len(), want.Len())
		}
		log, err := os.ReadFile(filepath.Join(dir, "child.log"))
		if err != nil {
			t.Fatal(err)
		}
		if string(log) != wantLog.String() {
			t.Fatalf("run %d: log holds %d of %d bytes", run, len(log), wantLog.Len())
		}
	}
}
