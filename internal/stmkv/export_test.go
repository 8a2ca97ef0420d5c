package stmkv

// FailReclamation makes the store's table heap record a reclamation
// failure — a Free of a size no class holds, which the heap reports
// through its next Drain — so a test can watch Store.Drain surface it.
func (s *Store) FailReclamation(th int) { s.heap.Free(th, 0, 1<<40) }

// HoldShard privatizes one shard — read-private as a scan window does,
// or exclusive as a rehash does — fences, and hands back the publish,
// so a test can observe who gets past a private shard and who waits.
func (s *Store) HoldShard(th, shard int, readOnly bool) (release func() error, err error) {
	state := flagExclusive
	if readOnly {
		state = flagReadPrivate
	}
	base := s.base(shard)
	if err := s.privatize(th, base, state); err != nil {
		return nil, err
	}
	return func() error { return s.publish(th, base) }, nil
}
