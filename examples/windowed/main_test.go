package main

import "testing"

// TestExampleRuns runs the example end to end at its built-in size.
func TestExampleRuns(t *testing.T) { main() }
