//go:build race

package p2p

// raceEnabled reports a -race build, whose instrumentation allocates
// and so shifts exact allocation counts.
const raceEnabled = true
