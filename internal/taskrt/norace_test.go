//go:build !race

package taskrt

const raceEnabled = false
