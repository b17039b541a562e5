//go:build !race

package main

// smokeSeconds is the smoke window: long enough for every p99 to have
// at least 10 samples beyond it.
const smokeSeconds = 4
