package model

import (
	"fmt"
	"math/rand"

	"safepriv/internal/spec"
)

// Config configures an exploration.
type Config struct {
	// Prog is the program to check.
	Prog Program
	// Model selects the TM model (TL2Kind or AtomicKind).
	Model TMKind
	// Fence selects the fence policy (TL2 model only).
	Fence FencePolicy
	// MaxStates bounds the number of distinct states visited (default
	// 5,000,000).
	MaxStates int
}

// Final is the observable outcome of one terminal state: the local
// variables of every thread (1-based), the register values, which
// threads diverged (bounded loop exhausted), and whether all threads
// terminated (false = deadlock, e.g. a fence waiting on a diverged
// transaction).
type Final struct {
	Locals  []map[string]Value
	Regs    []Value
	Stuck   []bool
	AllDone bool
}

// Result is the outcome of an exhaustive exploration.
type Result struct {
	// Finals are the distinct terminal outcomes.
	Finals []Final
	// States is the number of distinct states visited.
	States int
	// Deadlocks counts terminal states with unfinished threads.
	Deadlocks int
}

func (m *machine) finalOf(s *state) Final {
	f := Final{
		Locals:  make([]map[string]Value, len(s.th)),
		Regs:    append([]Value(nil), s.sh.reg...),
		Stuck:   make([]bool, len(s.th)),
		AllDone: true,
	}
	for t := 1; t < len(s.th); t++ {
		f.Locals[t] = cloneLocals(s.th[t].locals)
		f.Stuck[t] = s.th[t].stuckf
		if !s.th[t].done {
			f.AllDone = false
		}
	}
	return f
}

// Explore exhaustively enumerates the reachable states of the program
// under the configured TM model, with memoization, and returns the set
// of distinct terminal outcomes. All loops must be bounded (While.Bound).
func Explore(cfg Config) (*Result, error) {
	prog := cfg.Prog.Desugar()
	c, err := compile(prog)
	if err != nil {
		return nil, err
	}
	m := &machine{code: c, kind: cfg.Model, fence: cfg.Fence, nthreads: len(c.threads)}
	maxStates := cfg.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}

	init := newState(c, false)
	for t := 1; t <= m.nthreads; t++ {
		m.expand(init, t)
	}

	visited := map[string]struct{}{init.key(): {}}
	finalSeen := map[string]struct{}{}
	res := &Result{}
	stack := []*state{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++
		if res.States > maxStates {
			return nil, fmt.Errorf("model: state budget %d exhausted on %s", maxStates, prog.Name)
		}
		progressed := false
		for t := 1; t <= m.nthreads; t++ {
			if !m.enabled(s, t) {
				continue
			}
			progressed = true
			for _, ns := range m.step(s.clone(), t) {
				k := ns.key()
				if _, ok := visited[k]; ok {
					continue
				}
				visited[k] = struct{}{}
				stack = append(stack, ns)
			}
		}
		if !progressed {
			f := m.finalOf(s)
			k := s.key()
			if _, ok := finalSeen[k]; !ok {
				finalSeen[k] = struct{}{}
				res.Finals = append(res.Finals, f)
				if !f.AllDone {
					res.Deadlocks++
				}
			}
		}
	}
	return res, nil
}

// CheckAlways explores the program and reports the first terminal
// outcome violating the predicate, or nil if the property holds in
// every reachable terminal state.
func CheckAlways(cfg Config, pred func(Final) bool) (*Final, *Result, error) {
	res, err := Explore(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range res.Finals {
		if !pred(res.Finals[i]) {
			return &res.Finals[i], res, nil
		}
	}
	return nil, res, nil
}

// Exists explores the program and reports whether some terminal outcome
// satisfies the predicate (used to confirm that an anomaly is reachable
// in a buggy configuration).
func Exists(cfg Config, pred func(Final) bool) (bool, *Result, error) {
	res, err := Explore(cfg)
	if err != nil {
		return false, nil, err
	}
	for i := range res.Finals {
		if pred(res.Finals[i]) {
			return true, res, nil
		}
	}
	return false, res, nil
}

// Run is one sampled execution with its recorded history.
type Run struct {
	Final Final
	Hist  spec.History
	// WVers maps transaction ordinals (txbegin order, = Analysis.Txns
	// indices) to TL2 write timestamps.
	WVers map[int]int64
}

// Sample executes `runs` random schedules of the program, recording the
// TM interface history of each (Figure 4 actions at their linearization
// points). Used for the observational-refinement experiments: each
// TL2-model history of a DRF program must pass the strong-opacity
// checker.
func Sample(cfg Config, runs int, seed int64) ([]*Run, error) {
	prog := cfg.Prog.Desugar()
	c, err := compile(prog)
	if err != nil {
		return nil, err
	}
	m := &machine{code: c, kind: cfg.Model, fence: cfg.Fence, nthreads: len(c.threads)}
	rnd := rand.New(rand.NewSource(seed))
	out := make([]*Run, 0, runs)
	for i := 0; i < runs; i++ {
		s := newState(c, true)
		for t := 1; t <= m.nthreads; t++ {
			m.expand(s, t)
		}
		for steps := 0; ; steps++ {
			if steps > 1_000_000 {
				return nil, fmt.Errorf("model: sampled run did not terminate")
			}
			var en []int
			for t := 1; t <= m.nthreads; t++ {
				if m.enabled(s, t) {
					en = append(en, t)
				}
			}
			if len(en) == 0 {
				break
			}
			t := en[rnd.Intn(len(en))]
			succs := m.step(s, t)
			s = succs[rnd.Intn(len(succs))]
		}
		out = append(out, &Run{Final: m.finalOf(s), Hist: s.hist, WVers: s.wvers})
	}
	return out, nil
}

// AllHistories exhaustively enumerates the histories of maximal traces
// of the program (no memoization: path enumeration). Only feasible for
// small programs under the atomic model; used for DRF checking per
// Definition 3.3 — DRF(P, s, Hatomic) quantifies over all traces.
func AllHistories(cfg Config, maxPaths int) ([]*Run, error) {
	prog := cfg.Prog.Desugar()
	c, err := compile(prog)
	if err != nil {
		return nil, err
	}
	m := &machine{code: c, kind: cfg.Model, fence: cfg.Fence, nthreads: len(c.threads)}
	if maxPaths == 0 {
		maxPaths = 500_000
	}
	init := newState(c, true)
	for t := 1; t <= m.nthreads; t++ {
		m.expand(init, t)
	}
	var out []*Run
	stack := []*state{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		progressed := false
		for t := 1; t <= m.nthreads; t++ {
			if !m.enabled(s, t) {
				continue
			}
			progressed = true
			stack = append(stack, m.step(s.clone(), t)...)
		}
		if !progressed {
			out = append(out, &Run{Final: m.finalOf(s), Hist: s.hist, WVers: s.wvers})
			if len(out) > maxPaths {
				return nil, fmt.Errorf("model: path budget %d exhausted on %s", maxPaths, prog.Name)
			}
		}
	}
	return out, nil
}
