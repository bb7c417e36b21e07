//go:build !race

package msgstore

const raceEnabled = false
