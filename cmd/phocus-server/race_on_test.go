//go:build race

package main

// raceEnabled lets allocation-counting tests skip themselves under the race
// detector, which makes sync.Pool drop a share of what is put back.
const raceEnabled = true
