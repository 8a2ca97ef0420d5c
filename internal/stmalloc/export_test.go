package stmalloc

// InjectAsyncErr records err as if a reclamation had failed outside any
// call that could return it — the test hook behind Drain's
// surface-once regression test.
func (h *Heap) InjectAsyncErr(err error) { h.fail(err) }

// HeaderRegs exports headerRegs, a heap header's size, to the external
// test package.
func HeaderRegs(shards int) int { return headerRegs(shards) }

// MagazineRegs exports magazineRegs, the per-thread magazine header
// budget, to the external test package.
func MagazineRegs(threads int) int { return magazineRegs(threads) }

// ErrOutOfSpace exports errOutOfSpace, which the heap's exhaustion
// errors wrap, to the external test package.
var ErrOutOfSpace = errOutOfSpace
