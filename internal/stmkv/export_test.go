package stmkv

import "safepriv/internal/core"

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

// HoldSlots read-privatizes slots [lo, hi] of one shard, as a ScanPage
// window does, fences, and hands back the publish.
func (s *Store) HoldSlots(th, shard int, lo, hi int64) (release func() error, err error) {
	base := s.base(shard)
	err = s.acquire(th, base, flagReadPrivate, func(tx core.Txn) error {
		return setWindow(tx, base, window{lo, hi})
	})
	if err != nil {
		return nil, err
	}
	s.tm.Fence(th)
	return func() error { return s.publish(th, base) }, nil
}

// SlotOf returns the slot a Put of key would write in its shard's
// current table — the slot holding key, else the first tombstone on its
// probe, else the first empty slot — and the table's capacity. It loads
// uninstrumented, so the store must be quiescent.
func (s *Store) SlotOf(th int, key int64) (slot, cap int64) {
	base := s.base(s.shardOf(key))
	tab := s.tm.Load(th, base+offTable)
	cap = s.tm.Load(th, base+offCap)
	tomb := int64(-1)
	i := slotStart(key, cap)
	for range cap {
		switch k := s.tm.Load(th, keyReg(tab, i)); {
		case k == key:
			return int64(i), cap
		case k == keyTomb && tomb < 0:
			tomb = int64(i)
		case k == keyEmpty:
			if tomb >= 0 {
				return tomb, cap
			}
			return int64(i), cap
		}
		if i++; i == int(cap) {
			i = 0
		}
	}
	return tomb, cap
}
