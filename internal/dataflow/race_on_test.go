//go:build race

package dataflow

// raceEnabled: the race detector instruments allocations, so AllocsPerRun
// assertions are skipped under -race (the rest of each test still runs).
const raceEnabled = true
