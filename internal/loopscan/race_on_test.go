//go:build race

package loopscan

// raceEnabled skips the allocation guard under the race detector,
// which allocates on its own.
const raceEnabled = true
