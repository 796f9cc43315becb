//go:build race

package main

// raceEnabled reports a -race build: it slows the service workloads about
// tenfold, past the load they are offered.
const raceEnabled = true
