//go:build race

package coretest

// RaceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of its Puts on purpose, so the fence's pooled snapshot
// buffers allocate and Go-heap budgets do not hold.
const RaceEnabled = true
