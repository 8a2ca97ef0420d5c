package workload_test

import (
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
	// PerThread runs the same increments, one register per thread.
	for name, tm := range tms(t, 32, 5) {
		t.Run(name+"/per-thread", func(t *testing.T) {
			st, err := workload.PerThread(tm, 4, 100, workload.FenceNone)
			if err != nil {
				t.Fatal(err)
			}
			if st.Commits != 400 || st.Fences != 0 {
				t.Fatalf("stats = %+v, want 400 commits and no fences", st)
			}
			if got := workload.Total(tm); got != 400 {
				t.Fatalf("total = %d, want 400", got)
			}
			for th := 1; th <= 4; th++ {
				if got := tm.Load(1, (th-1)*8); got != 100 {
					t.Fatalf("thread %d's register = %d, want 100", th, got)
				}
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
