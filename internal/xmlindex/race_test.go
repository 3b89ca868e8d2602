//go:build race

package xmlindex

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so a guard on what a
// recycled buffer saves cannot hold under it.
const raceEnabled = true
