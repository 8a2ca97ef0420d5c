//go:build !race

package coretest

// RaceEnabled reports a -race build (see race.go).
const RaceEnabled = false
