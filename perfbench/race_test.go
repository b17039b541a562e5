//go:build race

package main

// smokeSeconds is the smoke window; the race detector slows the overlay
// about tenfold, so its windows are longer to hold enough samples for
// every p99.
const smokeSeconds = 16
