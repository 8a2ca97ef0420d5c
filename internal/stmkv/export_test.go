package stmkv

// InjectAsyncErr records err as if a deferred maintenance callback had
// failed — the test hook behind Drain's surface-once regression test.
func (s *Store) InjectAsyncErr(err error) { s.fail(err) }

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
