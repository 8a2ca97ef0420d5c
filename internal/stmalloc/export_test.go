package stmalloc

// InjectAsyncErr records err as if a reclamation had failed outside any
// call that could return it — the test hook behind Drain's
// surface-once regression test.
func (h *Heap) InjectAsyncErr(err error) { h.fail(err) }
