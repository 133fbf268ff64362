//go:build race

package serve

// raceEnabled: the binary runs under the race detector.
const raceEnabled = true
