package workload_test

import (
	"fmt"
	"testing"

	"safepriv/internal/core"
	"safepriv/internal/engine"
	"safepriv/internal/workload"
)

func tms(t *testing.T, regs, threads int) map[string]core.TM {
	t.Helper()
	out := map[string]core.TM{}
	for _, spec := range []string{"tl2", "norec", "baseline", "wtstm", "atomic"} {
		tm, err := engine.NewSpec(spec, regs, threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[spec] = tm
	}
	return out
}

func TestBankPreservesTotal(t *testing.T) {
	for name, tm := range tms(t, 8, 5) {
		t.Run(name, func(t *testing.T) {
			for x := 0; x < tm.NumRegs(); x++ {
				tm.Store(1, x, 50)
			}
			want := workload.Total(tm)
			st, err := workload.Bank(tm, 4, 200, workload.FenceNone, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := workload.Total(tm); got != want {
				t.Fatalf("total = %d, want %d", got, want)
			}
			if st.Commits != 4*200 {
				t.Fatalf("commits = %d", st.Commits)
			}
		})
	}
}

func TestCounterExact(t *testing.T) {
	for name, tm := range tms(t, 1, 5) {
		t.Run(name, func(t *testing.T) {
			st, err := workload.Counter(tm, 4, 100, workload.FenceAfterEveryTxn)
			if err != nil {
				t.Fatal(err)
			}
			if got := tm.Load(1, 0); got != 400 {
				t.Fatalf("counter = %d", got)
			}
			if st.Fences != 400 {
				t.Fatalf("fences = %d", st.Fences)
			}
		})
	}
}

func TestReadMostlyCompletes(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 32, 5, nil)
	st, err := workload.ReadMostly(tm, 4, 300, 4, 90, workload.FenceNone, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 4*300 {
		t.Fatalf("commits = %d", st.Commits)
	}
}

func TestPipelineRuns(t *testing.T) {
	for _, mode := range []workload.FenceMode{workload.FenceSelective, workload.FenceAfterEveryTxn} {
		tm := engine.MustNewSpec("tl2", 9, 6, nil)
		st, err := workload.Pipeline(tm, 4, 100, 5, mode, 3)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if st.Commits == 0 {
			t.Fatalf("mode %v: no commits", mode)
		}
		if st.Fences == 0 {
			t.Fatalf("mode %v: no fences", mode)
		}
	}
}

func TestPipelineNeedsRegisters(t *testing.T) {
	tm := engine.MustNewSpec("tl2", 1, 3, nil)
	if _, err := workload.Pipeline(tm, 1, 1, 1, workload.FenceSelective, 0); err == nil {
		t.Fatal("pipeline with one register accepted")
	}
}

func TestFenceModeString(t *testing.T) {
	if workload.FenceNone.String() != "none" || workload.FenceAfterEveryTxn.String() != "conservative" || workload.FenceSelective.String() != "selective" {
		t.Fatal("FenceMode names wrong")
	}
}

func TestKVStoreWorkloadAllTMs(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 150
	}
	for _, shards := range []int{1, workload.KVDefaultShards, 16} {
		for name, tm := range tms(t, workload.RegsFor("kvstore", 4), 6) {
			t.Run(fmt.Sprintf("%s/shards-%d", name, shards), func(t *testing.T) {
				st, err := workload.KVStore(tm, 4, ops, workload.KVConfig{Shards: shards, ScanEvery: 100}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if st.Commits != int64(4*ops) {
					t.Fatalf("completed ops = %d, want %d", st.Commits, 4*ops)
				}
				if st.Fences == 0 {
					t.Fatal("no privatizations despite scans and growth")
				}
			})
		}
	}
}

func TestKVWorkloadsViaRegistry(t *testing.T) {
	for _, name := range []string{"kvstore", "kv-scan", "kv-zipfian"} {
		t.Run(name, func(t *testing.T) {
			run, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("workload %q not registered", name)
			}
			tm := engine.MustNewSpec("tl2", workload.RegsFor(name, 3), 5, nil)
			st, err := run(tm, workload.Params{Threads: 3, Ops: 120, Seed: 2, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != 3*120 {
				t.Fatalf("completed ops = %d", st.Commits)
			}
		})
	}
}

// TestKVPrivatizeKnob: PrivatizeEvery is the privatization-frequency
// knob — a tighter cadence must produce more privatize cycles than a
// disabled one on the identical workload.
func TestKVPrivatizeKnob(t *testing.T) {
	fences := func(privEvery int) int64 {
		run, _ := workload.ByName("kvstore")
		tm := engine.MustNewSpec("tl2", workload.RegsFor("kvstore", 3), 5, nil)
		st, err := run(tm, workload.Params{Threads: 3, Ops: 200, Seed: 3, PrivatizeEvery: privEvery})
		if err != nil {
			t.Fatal(err)
		}
		return st.Fences
	}
	often, never := fences(50), fences(-1)
	if often <= never {
		t.Fatalf("PrivatizeEvery=50 produced %d privatizations, disabled produced %d", often, never)
	}
}

func TestWorkloadRegistryNames(t *testing.T) {
	names := workload.Names()
	if len(names) == 0 {
		t.Fatal("empty workload registry")
	}
	for _, name := range names {
		if _, ok := workload.ByName(name); !ok {
			t.Fatalf("workload.ByName(%q) missing", name)
		}
		if workload.RegsFor(name, 4) <= 0 {
			t.Fatalf("workload.RegsFor(%q) not positive", name)
		}
	}
	if _, ok := workload.ByName("nosuch"); ok {
		t.Fatal("workload.ByName accepted an unknown workload")
	}
}
