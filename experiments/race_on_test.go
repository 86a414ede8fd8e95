//go:build race

package experiments

// raceEnabled: the race detector slows every stage by a different factor,
// so timing assertions are skipped under -race (the stages still run).
const raceEnabled = true
