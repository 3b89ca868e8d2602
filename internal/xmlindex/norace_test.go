//go:build !race

package xmlindex

const raceEnabled = false
