//go:build !race

package freelist

const raceEnabled = false
