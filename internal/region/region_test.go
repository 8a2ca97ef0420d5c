package region

import (
	"errors"
	"math"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/tl2"
)

// TestGuard runs each Guard method from each state in one transaction
// and checks what it returns and what it leaves in the flag and bound
// registers once the transaction commits (or aborts, on an error). The
// flag starts one publish in, carrying payload 12 (from, unless a row
// sets its own), the bounds at old. Take and Give keep the payload,
// GiveWith replaces it, and the publish count wraps to 0. Claimable
// followed by TakeFrom is Take, and returns the payload on the way.
func TestGuard(t *testing.T) {
	g := Guard{Flag: 0, Lo: 1, Hi: 2}
	old, next := Window{10, 20}, Window{30, 40}
	const p = 12
	type seen struct {
		payload int64
		w       Window
		beside  bool
	}
	from := int64(1)<<countShift | SharedFlag(p)
	twice := int64(2)<<countShift | SharedFlag(p)
	last := countMask<<countShift | SharedFlag(p) // the count's last value
	writable := func(tx core.Txn) (any, error) {
		q, w, err := g.Writable(tx)
		return seen{payload: q, w: w}, err
	}
	readable := func(tx core.Txn) (any, error) {
		q, beside, err := g.Readable(tx)
		return seen{payload: q, beside: beside}, err
	}
	take := func(state int64, w Window) func(core.Txn) (any, error) {
		return func(tx core.Txn) (any, error) { return nil, g.Take(tx, state, w) }
	}
	claim := func(state int64, w Window) func(core.Txn) (any, error) {
		return func(tx core.Txn) (any, error) {
			f, err := g.Claimable(tx)
			if err != nil {
				return nil, err
			}
			return seen{payload: Payload(f)}, g.TakeFrom(tx, f, state, w)
		}
	}
	give := func(tx core.Txn) (any, error) { return nil, g.Give(tx) }
	giveWith := func(q int64) func(core.Txn) (any, error) {
		return func(tx core.Txn) (any, error) { return nil, g.GiveWith(tx, q) }
	}
	tests := []struct {
		name     string
		start    int64 // the flag's state bits are added to it
		state    int64
		op       func(core.Txn) (any, error)
		want     any
		wantErr  error
		wantFlag int64
		wantWin  Window
	}{
		{"Shared/Writable", from, shared, writable, seen{p, NoWindow, false}, nil, from, old},
		{"Exclusive/Writable", from, Exclusive, writable, seen{0, NoWindow, false}, ErrPrivate, from + 1, old},
		{"ReadPrivate/Writable", from, ReadPrivate, writable, seen{p, old, false}, nil, from + 3, old},
		{"Shared/Readable", from, shared, readable, seen{p, Window{}, false}, nil, from, old},
		{"Exclusive/Readable", from, Exclusive, readable, seen{}, ErrPrivate, from + 1, old},
		{"ReadPrivate/Readable", from, ReadPrivate, readable, seen{p, Window{}, true}, nil, from + 3, old},
		{"Shared/Take/Exclusive", from, shared, take(Exclusive, next), nil, nil, from + 1, old},
		{"Shared/Take/ReadPrivate", from, shared, take(ReadPrivate, next), nil, nil, from + 3, next},
		{"Shared/Take/ReadPrivate/NoWindow", from, shared, take(ReadPrivate, NoWindow), nil, nil, from + 3, NoWindow},
		{"Exclusive/Take", from, Exclusive, take(ReadPrivate, next), nil, ErrPrivate, from + 1, old},
		{"ReadPrivate/Take", from, ReadPrivate, take(Exclusive, NoWindow), nil, ErrPrivate, from + 3, old},
		{"Shared/Claimable/TakeFrom/ReadPrivate", from, shared, claim(ReadPrivate, next), seen{payload: p}, nil, from + 3, next},
		{"Shared/Claimable/TakeFrom/Exclusive", from, shared, claim(Exclusive, NoWindow), seen{payload: p}, nil, from + 1, old},
		{"Exclusive/Claimable", from, Exclusive, claim(ReadPrivate, next), nil, ErrPrivate, from + 1, old},
		{"ReadPrivate/Claimable", from, ReadPrivate, claim(ReadPrivate, next), nil, ErrPrivate, from + 3, old},
		{"Shared/Give", from, shared, give, nil, nil, twice, old},
		{"Exclusive/Give", from, Exclusive, give, nil, nil, twice, old},
		{"ReadPrivate/Give", from, ReadPrivate, give, nil, nil, twice, old},
		{"Shared/GiveWith", from, shared, giveWith(99), nil, nil, twice - SharedFlag(p) + SharedFlag(99), old},
		{"Exclusive/GiveWith", from, Exclusive, giveWith(99), nil, nil, twice - SharedFlag(p) + SharedFlag(99), old},
		{"ReadPrivate/GiveWith", from, ReadPrivate, giveWith(0), nil, nil, twice - SharedFlag(p), old},
		{"Exclusive/GiveWith/MaxPayload", from, Exclusive, giveWith(maxPayload), nil, nil, twice - SharedFlag(p) + SharedFlag(maxPayload), old},
		{"Exclusive/Give/CountWraps", last, Exclusive, give, nil, nil, SharedFlag(p), old},
		{"Shared/Writable/Unpublished", SharedFlag(maxPayload), shared, writable, seen{maxPayload, NoWindow, false}, nil, SharedFlag(maxPayload), old},
		{"ReadPrivate/Readable/CountAtLast", last, ReadPrivate, readable, seen{p, Window{}, true}, nil, last + 3, old},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tm := tl2.New(3, 1)
			tm.Store(1, g.Flag, tt.start+tt.state)
			tm.Store(1, g.Lo, old.Lo)
			tm.Store(1, g.Hi, old.Hi)
			tx := tm.Begin(1)
			got, err := tt.op(tx)
			if err == nil {
				err = tx.Commit()
			} else if tx.Live() {
				tx.Abort()
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("error %v, want %v", err, tt.wantErr)
			}
			if got != tt.want {
				t.Errorf("returned %v, want %v", got, tt.want)
			}
			if f := tm.Load(1, g.Flag); f != tt.wantFlag {
				t.Errorf("flag %#x after the call, want %#x", f, tt.wantFlag)
			}
			if q := Payload(tm.Load(1, g.Flag)); q != Payload(tt.wantFlag) {
				t.Errorf("payload %d after the call, want %d", q, Payload(tt.wantFlag))
			}
			if w := (Window{tm.Load(1, g.Lo), tm.Load(1, g.Hi)}); w != tt.wantWin {
				t.Errorf("bounds %v after the call, want %v", w, tt.wantWin)
			}
		})
	}
}

// TestPayloadOutOfRange: a payload that would spill into the state
// bits or the publish count is refused, not truncated.
func TestPayloadOutOfRange(t *testing.T) {
	for _, p := range []int64{-1, maxPayload + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SharedFlag(%d) did not panic", p)
				}
			}()
			SharedFlag(p)
		}()
	}
}

// TestWindowOverlaps pins the writer's window check, NoWindow above
// all: a range that reaches from MinInt64 past 0 contains NoWindow's
// bounds but must not meet it.
func TestWindowOverlaps(t *testing.T) {
	tests := []struct {
		name string
		w    Window
		a, b int64
		want bool
	}{
		{"NoWindow/point", NoWindow, 0, 0, false},
		{"NoWindow/from MinInt64", NoWindow, math.MinInt64, 5, false},
		{"inside", Window{10, 20}, 12, 12, true},
		{"at Lo", Window{10, 20}, 10, 10, true},
		{"at Hi", Window{10, 20}, 20, 20, true},
		{"below", Window{10, 20}, 1, 9, false},
		{"above", Window{10, 20}, 21, 30, false},
		{"reaching in from below", Window{10, 20}, math.MinInt64, 10, true},
		{"spanning", Window{10, 20}, 5, 25, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.w.Overlaps(tt.a, tt.b); got != tt.want {
				t.Errorf("%v.Overlaps(%d, %d) = %v, want %v", tt.w, tt.a, tt.b, got, tt.want)
			}
			if tt.a == tt.b && tt.w.Holds(tt.a) != tt.want {
				t.Errorf("%v.Holds(%d) = %v, want %v", tt.w, tt.a, !tt.want, tt.want)
			}
		})
	}
}
