// Package engine is the unified construction layer for every TM in the
// repository: a registry keyed by specification strings so harnesses
// (cmd/stress, cmd/litmus, internal/mgc, bench/, bench_test.go) select any
// TM × clock × fence × quiescer configuration by name instead of
// calling bespoke constructors. Adding a TM or a configuration axis is
// an edit here, not a cross-cutting change to every harness. A spec
// names a TM and nothing else: the shape of a heap built over the TM
// (bump or reclaiming, per-free or magazine) is chosen where the heap
// is built, with internal/stmalloc's options.
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
//	wait       the paper's fence: wait out every active transaction —
//	           the default, for explicitness      (all TMs)
//	nofence    Fence is a no-op — unsafe, for anomaly reproduction
//	           (tl2, wtstm)
//	skipro     fence skips read-only txns (GCC libitm bug) (tl2)
//
// wait, nofence and skipro all set the one fence axis, so any two of
// them in a spec conflict. Every stmalloc heap reclaims through the
// fence, so its blocks are safe only over a safe fence: an unsafe one
// (nofence, skipro) reproduces the anomalies on the heap too, and
// kvserve refuses it (Config.UnsafeFence).
//
// Examples: "tl2+gv4+epochs+sorted", "wtstm+nofence", "norec+epochs",
// "tl2+skipro".
package engine

import (
	"fmt"
	"sort"
	"strings"

	"safepriv/internal/atomictm"
	"safepriv/internal/baseline"
	"safepriv/internal/core"
	"safepriv/internal/norec"
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
	// Fence selects the fence behaviour: "" or "wait" (default), "noop"
	// (tl2, wtstm), or "skipro" (tl2 only).
	Fence string
	// Quiescer selects the grace-period implementation backing the
	// fence: "" or "flags" (default), or "epochs".
	Quiescer string
	// SortedLocks acquires TL2 commit locks in register order.
	SortedLocks bool
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
	case "noop":
		mods = append(mods, "nofence")
	case "skipro":
		mods = append(mods, "skipro")
	}
	if len(mods) == 0 {
		return c.TM
	}
	return c.TM + "+" + strings.Join(mods, "+")
}

// Parse decodes a specification string into a Config with zero sizing
// (callers fill in Regs/Threads/Sink).
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
		case "skipro":
			err = setAxis("fence", &cfg.Fence, "skipro", m)
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
	type axis struct{ name, val, dflt string }
	reject := func(ax ...axis) error {
		for _, a := range ax {
			if a.val != a.dflt {
				return fmt.Errorf("engine: TM %q does not support %s=%q", c.TM, a.name, a.val)
			}
		}
		return nil
	}
	// Every TM serves the paper's fence through one rcu.Fence; the
	// unsafe policies (noop, skipro) stay TM-specific.
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
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q supports no modifiers", c.TM)
		}
		if err := fenceIn("wait"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"}, axis{"quiescer", c.Quiescer, "flags"})
	case "atomic":
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q does not support sorted", c.TM)
		}
		if err := fenceIn("wait"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"}, axis{"quiescer", c.Quiescer, "flags"})
	case "norec":
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q has no lock table", c.TM)
		}
		if err := fenceIn("wait"); err != nil {
			return err
		}
		return reject(axis{"clock", c.Clock, "fai"})
	case "wtstm":
		if c.SortedLocks {
			return fmt.Errorf("engine: TM %q does not support sorted", c.TM)
		}
		if err := fenceIn("wait", "noop"); err != nil {
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
// period guarantee (the nofence/skipro anomaly policies): kvserve
// refuses such a TM, and cmd/litmus expects violations from it.
func (c Config) UnsafeFence() bool { return c.Fence == "noop" || c.Fence == "skipro" }

// New constructs the TM described by cfg.
func New(cfg Config) (core.TM, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	switch cfg.TM {
	case "baseline":
		return baseline.New(cfg.Regs, cfg.Threads, cfg.Sink), nil
	case "atomic":
		var opts []atomictm.Option
		if cfg.Sink != nil {
			opts = append(opts, atomictm.WithSink(cfg.Sink))
		}
		return atomictm.New(cfg.Regs, cfg.Threads, opts...), nil
	case "norec":
		var opts []norec.Option
		if cfg.Quiescer == "epochs" {
			opts = append(opts, norec.WithEpochFence())
		}
		return norec.New(cfg.Regs, cfg.Threads, cfg.Sink, opts...), nil
	case "wtstm":
		var opts []wtstm.Option
		if cfg.Clock == "gv4" {
			opts = append(opts, wtstm.WithGV4())
		}
		if cfg.Quiescer == "epochs" {
			opts = append(opts, wtstm.WithEpochFence())
		}
		if cfg.Fence == "noop" {
			opts = append(opts, wtstm.WithUnsafeFence())
		}
		return wtstm.New(cfg.Regs, cfg.Threads, opts...), nil
	case "tl2":
		var opts []tl2.Option
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
		if cfg.Sink != nil {
			opts = append(opts, tl2.WithSink(cfg.Sink))
		}
		return tl2.New(cfg.Regs, cfg.Threads, opts...), nil
	}
	return nil, fmt.Errorf("engine: unknown TM %q", cfg.TM)
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
		"atomic",
		"norec",
		"norec+epochs",
		"wtstm",
		"wtstm+gv4",
		"wtstm+epochs",
		"wtstm+nofence",
		"tl2",
		"tl2+gv4",
		"tl2+epochs",
		"tl2+sorted",
		"tl2+nofence",
		"tl2+skipro",
	}
	sort.Strings(s)
	return s
}

// TMs returns the base TM names.
func TMs() []string { return []string{"atomic", "baseline", "norec", "tl2", "wtstm"} }
