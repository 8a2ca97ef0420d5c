// Package vclock provides the global version clock used by TL2
// (Figure 7 line 19, Figure 9 line 40 of the paper): transactions
// sample it to obtain read timestamps and advance it on commit to
// obtain write timestamps.
//
// Two implementations are provided for the ablation benchmarks: the
// paper's fetch-and-increment clock, and a GV4-style "pass on failure"
// clock that avoids an atomic RMW when another committer has already
// advanced the clock past the sampled value.
package vclock

import "sync/atomic"

// Clock is a global version clock.
type Clock interface {
	// Load samples the clock (transaction begin: rver := clock).
	Load() int64
	// Tick advances the clock and returns the new value (commit:
	// wver := fetch_and_increment(clock)+1). exclusive reports that
	// this call's own increment moved the clock from v-1 to v; no
	// other exclusive Tick returns v. A committer that draws
	// v == rver+1 exclusively knows the clock did not move between its
	// rver sample and its own increment.
	Tick() (v int64, exclusive bool)
}

// pad avoids false sharing between the clock word and its neighbors.
type pad [56]byte

// FAI is the paper's clock: a single fetch-and-increment word.
type FAI struct {
	_ pad
	v atomic.Int64
	_ pad
}

// NewFAI returns a fetch-and-increment clock starting at 0.
func NewFAI() *FAI { return &FAI{} }

// Load samples the clock.
func (c *FAI) Load() int64 { return c.v.Load() }

// Tick increments the clock and returns the new value; every tick is
// exclusive.
func (c *FAI) Tick() (int64, bool) { return c.v.Add(1), true }

// GV4 is the "pass on failure" clock of Felber et al.: a committer
// attempts a single CAS from the sampled value; if the CAS fails,
// another committer has advanced the clock, and the new value can be
// used as this committer's write timestamp as well, because the two
// commits are serialized by their register locks. This trades timestamp
// uniqueness for lower contention; write timestamps remain monotonic
// per register.
type GV4 struct {
	_ pad
	v atomic.Int64
	_ pad
}

// NewGV4 returns a GV4 clock starting at 0.
func NewGV4() *GV4 { return &GV4{} }

// Load samples the clock.
func (c *GV4) Load() int64 { return c.v.Load() }

// Tick advances the clock by one from its current value, or adopts a
// concurrent advance. Only a tick whose own CAS won is exclusive.
func (c *GV4) Tick() (int64, bool) {
	old := c.v.Load()
	if c.v.CompareAndSwap(old, old+1) {
		return old + 1, true
	}
	// Someone else advanced the clock; their new value is a valid write
	// timestamp for us too (it exceeds every read timestamp sampled
	// before our commit), but it may race further advances, so reload.
	// It is shared with the committer that advanced it.
	return c.v.Load(), false
}
