//go:build race

package comm

// raceEnabled is set when the race detector is on. It allocates on the
// program's behalf, so an allocation bound does not hold under it.
const raceEnabled = true
