package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the example binary: main
// starts its nodes by re-executing os.Executable() with -node or
// -partial-node, and those children must run main, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-node" || os.Args[1] == "-partial-node") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExampleRuns runs all three deployments. main checks each
// distributed run's counts against the in-process run and exits
// nonzero on any difference, which fails the test.
func TestExampleRuns(t *testing.T) { main() }
