package stmkv

import (
	"errors"
	"testing"
)

// goldenCursors are encodeCursor's strings as the wire carries them: a
// cursor a client holds must keep parsing across releases, so a new
// codec must reproduce every row.
var goldenCursors = []struct {
	c   scanCursor
	str string
}{
	{scanCursor{0, 0, 0, 0}, "MC4wLjAuMA"},
	{scanCursor{2, 0, 0, 0}, "Mi4wLjAuMA"},
	{scanCursor{1, 412, 88, 2048}, "MS40MTIuODguMjA0OA"},
	{scanCursor{3, 4095, 1<<63 - 1, 4096}, "My40MDk1LjkyMjMzNzIwMzY4NTQ3NzU4MDcuNDA5Ng"},
}

func TestCursorGolden(t *testing.T) {
	s := &Store{shards: 4}
	for _, g := range goldenCursors {
		if got := encodeCursor(g.c); got != g.str {
			t.Errorf("encodeCursor(%+v) = %q, want %q", g.c, got, g.str)
		}
		if c, err := s.parseCursor(g.str); err != nil || c != g.c {
			t.Errorf("parseCursor(%q) = %+v, %v, want %+v", g.str, c, err, g.c)
		}
	}
}

// FuzzParseCursor: parseCursor never panics, every rejection wraps
// ErrBadCursor, and it accepts only strings encodeCursor emits: an
// accepted string is the encoding of what it parsed to.
func FuzzParseCursor(f *testing.F) {
	for _, g := range goldenCursors {
		f.Add(g.str)
	}
	// Strings encodeCursor never emits.
	for _, bad := range []string{
		"",
		"not base64 ***",
		"MC4wLjAuMA==",    // "0.0.0.0" padded: RawURLEncoding refuses "="
		"MS4yLjM",         // "1.2.3": three fields
		"MS4yLjMuNC41",    // "1.2.3.4.5": five fields
		"LTEuMC4wLjA",     // "-1.0.0.0": negative shard
		"MC4tNS4wLjA",     // "0.-5.0.0": negative slot
		"NC4wLjAuMA",      // "4.0.0.0": shard = shards
		"OTk5LjAuMC4w",    // "999.0.0.0": shard > shards
		"MC4xLjIueA",      // "0.1.2.x": not a number
		"IDEuMi4zLjQ",     // " 1.2.3.4": leading space
		"MS4yLjMuNGp1bms", // "1.2.3.4junk": trailing bytes
		"KzEuMi4zLjQ",     // "+1.2.3.4": a sign
		"MDEuMi4zLjQ",     // "01.2.3.4": a leading zero
		"MC4wLjAuMB",      // "0.0.0.0" with nonzero padding bits
	} {
		f.Add(bad)
	}
	s := &Store{shards: 4}
	f.Fuzz(func(t *testing.T, str string) {
		c, err := s.parseCursor(str)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("parseCursor(%q) error %v does not wrap ErrBadCursor", str, err)
			}
			return
		}
		if back := encodeCursor(c); back != str {
			t.Fatalf("parseCursor(%q) accepted %+v, which encodes as %q", str, c, back)
		}
	})
}
