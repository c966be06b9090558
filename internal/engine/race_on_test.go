//go:build race

package engine

// raceEnabled lets allocation counts stand down under the race detector,
// which allocates on its own.
const raceEnabled = true
