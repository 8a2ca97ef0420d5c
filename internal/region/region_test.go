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
// flag starts one publish in (4 + state), the bounds at old.
func TestGuard(t *testing.T) {
	g := Guard{Flag: 0, Lo: 1, Hi: 2}
	old, next := Window{10, 20}, Window{30, 40}
	writable := func(tx core.Txn) (any, error) { return g.Writable(tx) }
	readable := func(tx core.Txn) (any, error) { return g.Readable(tx) }
	take := func(state int64, w Window) func(core.Txn) (any, error) {
		return func(tx core.Txn) (any, error) { return nil, g.Take(tx, state, w) }
	}
	give := func(tx core.Txn) (any, error) { return nil, g.Give(tx) }
	tests := []struct {
		name     string
		state    int64
		op       func(core.Txn) (any, error)
		want     any
		wantErr  error
		wantFlag int64
		wantWin  Window
	}{
		{"Shared/Writable", shared, writable, NoWindow, nil, 4, old},
		{"Exclusive/Writable", Exclusive, writable, NoWindow, ErrPrivate, 5, old},
		{"ReadPrivate/Writable", ReadPrivate, writable, old, nil, 7, old},
		{"Shared/Readable", shared, readable, false, nil, 4, old},
		{"Exclusive/Readable", Exclusive, readable, false, ErrPrivate, 5, old},
		{"ReadPrivate/Readable", ReadPrivate, readable, true, nil, 7, old},
		{"Shared/Take/Exclusive", shared, take(Exclusive, next), nil, nil, 5, old},
		{"Shared/Take/ReadPrivate", shared, take(ReadPrivate, next), nil, nil, 7, next},
		{"Shared/Take/ReadPrivate/NoWindow", shared, take(ReadPrivate, NoWindow), nil, nil, 7, NoWindow},
		{"Exclusive/Take", Exclusive, take(ReadPrivate, next), nil, ErrPrivate, 5, old},
		{"ReadPrivate/Take", ReadPrivate, take(Exclusive, NoWindow), nil, ErrPrivate, 7, old},
		{"Shared/Give", shared, give, nil, nil, 8, old},
		{"Exclusive/Give", Exclusive, give, nil, nil, 8, old},
		{"ReadPrivate/Give", ReadPrivate, give, nil, nil, 8, old},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tm := tl2.New(3, 1)
			tm.Store(1, g.Flag, 4+tt.state)
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
				t.Errorf("flag %d after the call, want %d", f, tt.wantFlag)
			}
			if w := (Window{tm.Load(1, g.Lo), tm.Load(1, g.Hi)}); w != tt.wantWin {
				t.Errorf("bounds %v after the call, want %v", w, tt.wantWin)
			}
		})
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
