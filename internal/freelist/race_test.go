//go:build race

package freelist

// raceEnabled is set when the race detector is on, which allocates on the
// program's behalf.
const raceEnabled = true
