package stmkv

import (
	"math"

	"safepriv/internal/core"
	"safepriv/internal/region"
)

// HoldShard privatizes one shard — read-private over every slot as
// Scan does, or exclusive as a rehash does — fences, and hands back the
// publish, so a test can observe who gets past a private shard and who
// waits.
func (s *Store) HoldShard(th, shard int, readOnly bool) (release func() error, err error) {
	base := s.base(shard)
	if readOnly {
		_, _, _, err = s.openScanWindow(th, base, scanCursor{}, math.MaxInt)
	} else {
		err = s.own.Privatize(th, exclusive(base))
	}
	if err != nil {
		return nil, err
	}
	return func() error { return s.own.Publish(th, guard(base).Give) }, nil
}

// HoldSlots read-privatizes slots [lo, hi] of one shard, as a ScanPage
// window does, fences, and hands back the publish.
func (s *Store) HoldSlots(th, shard int, lo, hi int64) (release func() error, err error) {
	g := guard(s.base(shard))
	err = s.own.Privatize(th, func(tx core.Txn) error {
		return g.Take(tx, region.ReadPrivate, region.Window{Lo: lo, Hi: hi})
	})
	if err != nil {
		return nil, err
	}
	return func() error { return s.own.Publish(th, g.Give) }, nil
}

// SlotOf returns the slot a Put of key would write in its shard's
// current table — the slot holding key, else the first tombstone on its
// probe, else the first empty slot — and the table's capacity. It loads
// uninstrumented, so the store must be quiescent.
func (s *Store) SlotOf(th int, key int64) (slot, cap int64) {
	shard := s.shardOf(key)
	tab, _ := s.table(shard)
	cap = s.CapOf(th, shard)
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

// PutTx runs one Put of key↦val inside the caller's transaction, as Put
// does inside its own. It returns the store's internal errors as they
// are: a shard that is private or needs growth fails the put.
func (s *Store) PutTx(tx core.Txn, key, val int64) error {
	return s.putInTx(tx, s.shardOf(key), key, val)
}

// CapOf returns shard's active capacity, loaded uninstrumented, so the
// store must be quiescent.
func (s *Store) CapOf(th, shard int) int64 {
	return region.Payload(s.tm.Load(th, s.base(shard)+offFlag))
}

// Rehash rebuilds one shard's table at cap active slots in grow's
// private phase: privatize the shard exclusive, fence, rehashTo,
// publish. cap is clamped to [max(live keys, 1), slots], since
// rehashTo cannot place more keys than it has slots.
func (s *Store) Rehash(th, shard int, cap int64) error {
	base := s.base(shard)
	if err := s.own.Privatize(th, exclusive(base)); err != nil {
		return err
	}
	old := s.CapOf(th, shard)
	live := s.tm.Load(th, base+offCount)
	next := min(max(cap, live, 1), int64(s.slots))
	s.rehashTo(th, shard, old, next)
	return s.publish(th, base, next)
}
