package mgc

import (
	"testing"
)

func TestRunAndCheckSmall(t *testing.T) {
	res, err := RunAndCheck(Config{
		Threads:       3,
		DataRegs:      4,
		TxnsPerThread: 15,
		OpsPerTxn:     3,
		Rounds:        4,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("strong opacity violated: %v", err)
	}
	if !res.Report.DRF {
		t.Fatal("protocol should produce DRF histories")
	}
	if res.Txns == 0 || res.NonTxn == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

func TestRunAndCheckManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		res, err := RunAndCheck(Config{
			Threads:       4,
			DataRegs:      3,
			TxnsPerThread: 10,
			OpsPerTxn:     2,
			Rounds:        3,
			Seed:          seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Report.DRF {
			t.Fatalf("seed %d: racy history", seed)
		}
	}
}

func TestRunAndCheckVariants(t *testing.T) {
	for _, spec := range []string{"tl2+gv4", "tl2+epochs", "tl2+flags", "tl2", "atomic"} {
		t.Run(spec, func(t *testing.T) {
			_, err := RunAndCheck(Config{
				Threads:       3,
				DataRegs:      3,
				TxnsPerThread: 10,
				OpsPerTxn:     2,
				Rounds:        3,
				Seed:          7,
				TM:            spec,
			})
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		})
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRunAndCheckNOrec(t *testing.T) {
	res, err := RunAndCheck(Config{
		Threads:       3,
		DataRegs:      3,
		TxnsPerThread: 12,
		OpsPerTxn:     2,
		Rounds:        3,
		Seed:          5,
		TM:            "norec",
	})
	if err != nil {
		t.Fatalf("NOrec strong opacity violated: %v", err)
	}
	if !res.Report.DRF {
		t.Fatal("NOrec mgc history racy")
	}
}
