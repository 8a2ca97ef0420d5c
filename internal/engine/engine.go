// Package engine is the unified construction layer for every TM in the
// repository: a registry keyed by specification strings so harnesses
// (cmd/stress, cmd/litmus, internal/mgc, bench/, bench_test.go) select any
// TM × clock × fence × quiescer configuration by name instead of
// calling bespoke constructors. Adding a TM or a configuration axis is
// an edit here, not a cross-cutting change to every harness.
//
// A specification is a base TM name followed by '+'-separated
// modifiers:
//
//	baseline              global-lock TM (trivially strongly atomic)
//	atomic                striped 2PL strongly-atomic runtime
//	norec                 NOrec (value validation, no ownership records)
//	wtstm                 write-through undo-log TM
//	tl2                   TL2 (the paper's case-study TM)
//
//	modifiers (availability depends on the TM):
//	gv4        GV4 pass-on-failure global clock  (tl2, wtstm)
//	fai        fetch-and-increment clock — the default, for explicitness
//	epochs     epoch-based grace period          (tl2, norec, wtstm)
//	flags      flag-based grace period — the default
//	sorted     commit locks in register order    (tl2)
//	combine    concurrent fences coalesce onto shared grace periods
//	defer      fences batch through a background reclaimer; FenceAsync
//	           callbacks never block the caller  (all TMs)
//	nofence    Fence is a no-op — unsafe, for anomaly reproduction
//	skipro     fence skips read-only txns (GCC libitm bug) (tl2)
//	quiesce    data structures reclaim memory through the stmalloc
//	           quiescence-based allocator          (all TMs)
//	bump       append-only bump allocation — the default, for
//	           explicitness
//	batch      the stmalloc heap adds the per-thread magazine layer:
//	           frees park in thread-local magazines and whole
//	           magazines retire under one shared grace period
//	           (requires a quiesce allocator and a safe fence)
//	free       one grace-period registration per Free — the default
//	           reclaim granularity, for explicitness
//
// combine, defer, nofence, skipro and wait all set the one fence axis,
// so any two of them in a spec conflict (in particular nofence+combine
// and combine+defer are rejected); bump and quiesce likewise share the
// allocator axis, and free and batch the reclaim-granularity axis. The
// allocator and reclaim axes do not change the TM itself — they are
// carried in the Config for the layers that build transactional data
// structures over the TM (internal/kvserve and the internal/txexec
// differential suites): on a quiesce spec they allocate from an
// internal/stmalloc heap whose Free rides the TM's fence, on a bump
// spec from the append-only stmds bump allocator, and on a batch spec
// the heap grows per-thread magazines so reclamation cost scales with
// free epochs instead of free count. batch conflicts with an explicit
// bump allocator (nothing to batch) and with the unsafe fence specs
// (no grace period to amortize); "tm+batch" alone implies quiesce. On
// the unsafe fence specs (nofence, skipro) the quiesce layers fall
// back to stmalloc's fully-transactional reclamation, which needs no
// grace period.
//
// Examples: "tl2+gv4+epochs+sorted", "wtstm+nofence", "norec+defer",
// "tl2+gv4+combine", "tl2+defer+quiesce", "tl2+quiesce+batch".
package engine

import (
	"fmt"
	"sort"
	"strings"

	"safepriv/internal/atomictm"
	"safepriv/internal/baseline"
	"safepriv/internal/core"
	"safepriv/internal/norec"
	"safepriv/internal/quiesce"
	"safepriv/internal/record"
	"safepriv/internal/tl2"
	"safepriv/internal/wtstm"
)

// Config is a fully explicit TM configuration: the parsed form of a
// specification string plus the sizing and instrumentation parameters
// that harnesses supply per run.
type Config struct {
	// TM is the base TM name: "baseline", "atomic", "norec", "wtstm",
	// or "tl2".
	TM string
	// Regs is the number of registers.
	Regs int
	// Threads is the number of thread ids (1-based ids 1..Threads).
	Threads int
	// Clock selects the global version clock: "" or "fai" (default),
	// or "gv4". Only tl2 and wtstm have a clock.
	Clock string
	// Fence selects the fence behaviour: "" or "wait" (default),
	// "combine", "defer", "noop", or "skipro" (tl2 only).
	Fence string
	// Quiescer selects the grace-period implementation backing the
	// fence: "" or "flags" (default), or "epochs".
	Quiescer string
	// Alloc selects the allocator the data-structure layers build over
	// the TM: "" or "bump" (default), or "quiesce" (the stmalloc
	// reclaiming heap). It does not affect TM construction.
	Alloc string
	// Reclaim selects the reclamation granularity of a quiesce
	// allocator: "" or "free" (default — one grace-period registration
	// per Free), or "batch" (the stmalloc magazine layer: thread-local
	// caches, whole magazines retired under one shared grace period).
	// It does not affect TM construction.
	Reclaim string
	// SortedLocks acquires TL2 commit locks in register order.
	SortedLocks bool
	// Stripes sets the version-lock table size for the striped TMs
	// (tl2, wtstm, atomic); 0 selects the stripe-package default.
	Stripes int
	// Sink, if non-nil, receives every TM interface action for offline
	// checking (TMs without sink support reject a non-nil Sink).
	Sink record.Sink
}

// Spec returns the canonical specification string for the configuration
// (Parse(cfg.Spec()) round-trips the named fields).
func (c Config) Spec() string {
	var mods []string
	if c.Clock == "gv4" {
		mods = append(mods, "gv4")
	}
	if c.Quiescer == "epochs" {
		mods = append(mods, "epochs")
	}
	if c.SortedLocks {
		mods = append(mods, "sorted")
	}
	switch c.Fence {
	case "combine":
		mods = append(mods, "combine")
	case "defer":
		mods = append(mods, "defer")
	case "noop":
		mods = append(mods, "nofence")
	case "skipro":
		mods = append(mods, "skipro")
	}
	if c.Alloc == "quiesce" {
		mods = append(mods, "quiesce")
	}
	if c.Reclaim == "batch" {
		mods = append(mods, "batch")
	}
	if len(mods) == 0 {
		return c.TM
	}
	return c.TM + "+" + strings.Join(mods, "+")
}

// Parse decodes a specification string into a Config with zero sizing
// (callers fill in Regs/Threads/Stripes/Sink).
func Parse(spec string) (Config, error) {
	parts := strings.Split(spec, "+")
	cfg := Config{TM: strings.TrimSpace(parts[0])}
	switch cfg.TM {
	case "baseline", "atomic", "norec", "wtstm", "tl2":
	case "":
		return Config{}, fmt.Errorf("engine: empty TM spec")
	default:
		return Config{}, fmt.Errorf("engine: unknown TM %q (want baseline, atomic, norec, wtstm, or tl2)", cfg.TM)
	}
	// Each modifier sets one configuration axis; setting an axis twice
	// (duplicate modifier, or two modifiers of the same axis such as
	// gv4+fai) is a conflict, not a last-one-wins.
	setAxis := func(axis string, dst *string, val, mod string) error {
		if *dst != "" {
			return fmt.Errorf("engine: duplicate %s modifier %q in spec %q (already %q)", axis, mod, spec, *dst)
		}
		*dst = val
		return nil
	}
	for _, m := range parts[1:] {
		var err error
		switch strings.TrimSpace(m) {
		case "gv4", "fai":
			err = setAxis("clock", &cfg.Clock, strings.TrimSpace(m), m)
		case "epochs", "flags":
			err = setAxis("quiescer", &cfg.Quiescer, strings.TrimSpace(m), m)
		case "nofence":
			err = setAxis("fence", &cfg.Fence, "noop", m)
		case "wait":
			err = setAxis("fence", &cfg.Fence, "wait", m)
		case "combine":
			err = setAxis("fence", &cfg.Fence, "combine", m)
		case "defer":
			err = setAxis("fence", &cfg.Fence, "defer", m)
		case "skipro":
			err = setAxis("fence", &cfg.Fence, "skipro", m)
		case "bump", "quiesce":
			err = setAxis("alloc", &cfg.Alloc, strings.TrimSpace(m), m)
		case "free", "batch":
			err = setAxis("reclaim", &cfg.Reclaim, strings.TrimSpace(m), m)
		case "sorted":
			if cfg.SortedLocks {
				err = fmt.Errorf("engine: duplicate modifier %q in spec %q", m, spec)
			}
			cfg.SortedLocks = true
		case "":
			err = fmt.Errorf("engine: empty modifier in spec %q", spec)
		default:
			err = fmt.Errorf("engine: unknown modifier %q in spec %q", m, spec)
		}
		if err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// normalize fills defaults and validates the modifier/TM combination.
func (c *Config) normalize() error {
	if c.Regs < 0 || c.Threads <= 0 {
		return fmt.Errorf("engine: bad sizing regs=%d threads=%d", c.Regs, c.Threads)
	}
	if c.Clock == "" {
		c.Clock = "fai"
	}
	if c.Fence == "" {
		c.Fence = "wait"
	}
	if c.Quiescer == "" {
		c.Quiescer = "flags"
	}
	if c.Reclaim == "" {
		c.Reclaim = "free"
	}
	if c.Reclaim == "batch" {
		// Batched reclamation presupposes a reclaiming allocator and a
		// real grace period: an explicit bump allocator or an unsafe
		// fence conflicts; a bare "tm+batch" implies quiesce.
		if c.Alloc == "bump" {
			return fmt.Errorf("engine: reclaim=%q requires alloc=quiesce, not %q (a bump allocator never frees)", c.Reclaim, c.Alloc)
		}
		if c.UnsafeFence() {
			return fmt.Errorf("engine: reclaim=%q needs a grace period to amortize; fence=%q gives none", c.Reclaim, c.Fence)
		}
		c.Alloc = "quiesce"
	}
	if c.Alloc == "" {
		c.Alloc = "bump"
	}
	type axis struct{ name, val, dflt string }
	reject := func(ax ...axis) error {
		for _, a := range ax {
			if a.val != a.dflt {
				return fmt.Errorf("engine: TM %q does not support %s=%q", c.TM, a.name, a.val)
			}
		}
		return nil
	}
	// Every TM serves the three safe fence modes through the shared
	// quiescence service; the unsafe policies (noop, skipro) stay
	// TM-specific.
	fenceIn := func(allowed ...string) error {
		for _, a := range allowed {
			if c.Fence == a {
				return nil
			}
		}
		return fmt.Errorf("engine: TM %q does not support fence=%q", c.TM, c.Fence)
	}
	switch c.TM {
	case "baseline":
		if c.SortedLocks || c.Stripes != 0 {
			return fmt.Errorf("engine: TM %q supports no modifiers", c.TM)
		}
		if err := fenceIn("wait", "combine", "defer"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"}, axis{"quiescer", c.Quiescer, "flags"})
	case "atomic":
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q supports only the stripes modifier", c.TM)
		}
		if err := fenceIn("wait", "combine", "defer"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"}, axis{"quiescer", c.Quiescer, "flags"})
	case "norec":
		if c.SortedLocks || c.Stripes != 0 {
			return fmt.Errorf("engine: TM %q has no lock table", c.TM)
		}
		if err := fenceIn("wait", "combine", "defer"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"})
	case "wtstm":
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q does not support sorted", c.TM)
		}
		if err := fenceIn("wait", "combine", "defer", "noop"); err != nil {
			return err
		}
		if c.Sink != nil {
			return fmt.Errorf("engine: TM %q does not support a recording sink", c.TM)
		}
		return nil
	case "tl2":
		return nil
	}
	return fmt.Errorf("engine: unknown TM %q", c.TM)
}

// UnsafeFence reports whether the configuration's fence gives no grace
// period guarantee (the nofence/skipro anomaly policies): layers that
// reclaim memory through the fence must fall back to fully
// transactional reclamation on such a TM.
func (c Config) UnsafeFence() bool { return c.Fence == "noop" || c.Fence == "skipro" }

// fenceMode maps the fence axis to a quiescence mode ("wait" for the
// unsafe policies, whose handling is TM-specific).
func fenceMode(fence string) quiesce.Mode {
	switch fence {
	case "combine":
		return quiesce.Combine
	case "defer":
		return quiesce.Defer
	}
	return quiesce.Wait
}

// New constructs the TM described by cfg.
func New(cfg Config) (core.TM, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mode := fenceMode(cfg.Fence)
	switch cfg.TM {
	case "baseline":
		return baseline.New(cfg.Regs, cfg.Threads, cfg.Sink, baseline.WithFenceMode(mode)), nil
	case "atomic":
		opts := []atomictm.Option{atomictm.WithFenceMode(mode)}
		if cfg.Stripes != 0 {
			opts = append(opts, atomictm.WithStripes(cfg.Stripes))
		}
		if cfg.Sink != nil {
			opts = append(opts, atomictm.WithSink(cfg.Sink))
		}
		return atomictm.New(cfg.Regs, cfg.Threads, opts...), nil
	case "norec":
		opts := []norec.Option{norec.WithFenceMode(mode)}
		if cfg.Quiescer == "epochs" {
			opts = append(opts, norec.WithEpochFence())
		}
		return norec.New(cfg.Regs, cfg.Threads, cfg.Sink, opts...), nil
	case "wtstm":
		opts := []wtstm.Option{wtstm.WithFenceMode(mode)}
		if cfg.Clock == "gv4" {
			opts = append(opts, wtstm.WithGV4())
		}
		if cfg.Quiescer == "epochs" {
			opts = append(opts, wtstm.WithEpochFence())
		}
		if cfg.Fence == "noop" {
			opts = append(opts, wtstm.WithUnsafeFence())
		}
		if cfg.Stripes != 0 {
			opts = append(opts, wtstm.WithStripes(cfg.Stripes))
		}
		return wtstm.New(cfg.Regs, cfg.Threads, opts...), nil
	case "tl2":
		opts := []tl2.Option{tl2.WithFenceMode(mode)}
		if cfg.Clock == "gv4" {
			opts = append(opts, tl2.WithGV4())
		}
		if cfg.Quiescer == "epochs" {
			opts = append(opts, tl2.WithEpochFence())
		}
		switch cfg.Fence {
		case "noop":
			opts = append(opts, tl2.WithFence(tl2.FenceNoOp))
		case "skipro":
			opts = append(opts, tl2.WithFence(tl2.FenceSkipReadOnly))
		}
		if cfg.SortedLocks {
			opts = append(opts, tl2.WithSortedLocks())
		}
		if cfg.Stripes != 0 {
			opts = append(opts, tl2.WithStripes(cfg.Stripes))
		}
		if cfg.Sink != nil {
			opts = append(opts, tl2.WithSink(cfg.Sink))
		}
		return tl2.New(cfg.Regs, cfg.Threads, opts...), nil
	}
	return nil, fmt.Errorf("engine: unknown TM %q", cfg.TM)
}

// MustNew is New, panicking on error — for harnesses whose
// configurations are static.
func MustNew(cfg Config) core.TM {
	tm, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

// NewSpec parses spec, applies sizing, and constructs the TM.
func NewSpec(spec string, regs, threads int, sink record.Sink) (core.TM, error) {
	cfg, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	cfg.Regs, cfg.Threads, cfg.Sink = regs, threads, sink
	return New(cfg)
}

// MustNewSpec is NewSpec, panicking on error.
func MustNewSpec(spec string, regs, threads int, sink record.Sink) core.TM {
	tm, err := NewSpec(spec, regs, threads, sink)
	if err != nil {
		panic(err)
	}
	return tm
}

// Specs returns the canonical registered configurations: every base TM
// plus the named variants the experiment harnesses use. Each returned
// spec parses and constructs (the engine round-trip test holds this).
func Specs() []string {
	s := []string{
		"baseline",
		"baseline+combine",
		"atomic",
		"atomic+defer",
		"norec",
		"norec+epochs",
		"norec+combine",
		"norec+defer",
		"norec+quiesce",
		"wtstm",
		"wtstm+gv4",
		"wtstm+epochs",
		"wtstm+nofence",
		"wtstm+combine",
		"tl2",
		"tl2+gv4",
		"tl2+epochs",
		"tl2+sorted",
		"tl2+nofence",
		"tl2+skipro",
		"tl2+combine",
		"tl2+defer",
		"tl2+gv4+combine",
		"tl2+quiesce",
		"tl2+defer+quiesce",
		"tl2+quiesce+batch",
		"tl2+defer+quiesce+batch",
		"norec+quiesce+batch",
	}
	sort.Strings(s)
	return s
}

// TMs returns the base TM names.
func TMs() []string { return []string{"atomic", "baseline", "norec", "tl2", "wtstm"} }
