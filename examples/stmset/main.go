// STM set with safe memory reclamation: a chained hash set built on
// the TM, exercised by concurrent insert/remove churn, with every
// removed node recycled through the stmalloc quiescence-based
// allocator — the paper's privatization idiom (unlink transactionally,
// fence, reuse uninstrumented) running on the hot path.
//
// The set lives entirely in TM registers (a transactional heap). The
// demo pushes far more allocation traffic through the heap than it has
// registers: without reclamation the heap would run out of space,
// with it the footprint stays bounded by the live set. The reporting
// thread takes its consistent snapshot with one big transaction,
// showing the other way to get consistency.
//
// Run with: go run ./examples/stmset
package main

import (
	"fmt"
	"math/rand"
	"sync"

	"safepriv/internal/stmalloc"
	"safepriv/internal/stmds"
	"safepriv/internal/tl2"
)

func main() {
	const (
		threads = 8
		perOps  = 6000    // ~threads·perOps/4 winning inserts ≫ the arena below
		regs    = 1 << 14 // well under the allocation traffic: reclamation must keep up
	)
	// Every Free fences on the remover's thread before the node is
	// reused: the grace period is what makes reclamation safe.
	tm := tl2.New(regs, threads)
	heap, err := stmalloc.New(tm, 8, tm.NumRegs(), stmalloc.WithShards(4))
	if err != nil {
		panic(err)
	}
	set := stmds.NewHashSet(tm, 1, heap)

	var wg sync.WaitGroup
	for th := 1; th <= threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < perOps; i++ {
				k := int64(r.Intn(200) + 1)
				var err error
				if r.Intn(2) == 0 {
					_, err = set.Insert(th, k)
				} else {
					_, err = set.Remove(th, k)
				}
				if err != nil {
					panic(err)
				}
			}
		}(th)
	}
	wg.Wait()
	if err := heap.Drain(1); err != nil {
		panic(err)
	}

	snap, err := set.Snapshot(1)
	if err != nil {
		panic(err)
	}
	st := heap.Stats()
	fmt.Printf("%d churn ops over a %d-register heap: %d allocs, %d frees, footprint %d regs\n",
		threads*perOps, regs, st.Allocs, st.Frees, st.BumpRegs)
	fmt.Printf("live set: %d keys; allocator live blocks: %d (one per key + the bucket array)\n", len(snap), st.Live)
	if st.Live != int64(len(snap)+1) {
		panic("leak: allocs-frees does not match the live set plus its bucket array")
	}
	for i := 1; i < len(snap); i++ {
		if snap[i] <= snap[i-1] {
			panic("set not sorted / contains duplicates")
		}
	}
	// The demo's premise: allocation traffic (a 3-register block per
	// insert: key, value, next) far exceeds the arena, so completing
	// without running out of space is what demonstrates reclamation
	// keeping up.
	if traffic := int64(stmalloc.BlockRegs(3)) * st.Allocs; traffic <= int64(regs) {
		panic("demo misconfigured: arena is not smaller than the allocation traffic")
	}
	fmt.Println("OK: sorted, duplicate-free, and fully reclaimed — bounded space under unbounded churn")
}
