// Quickstart: open a durable skiplist store with the NVTraverse
// transformation, use it from several goroutines through per-goroutine
// session handles — point ops, atomic read-modify-write, an ordered range
// scan — and inspect the persistence-instruction counts that make the
// transformation cheap. The store is one shard of the sharded engine; the
// same handles work unchanged on eight (add nvtraverse.WithShards(8) to
// Open).
package main

import (
	"fmt"
	"sync"

	"repro"
)

func main() {
	st, err := nvtraverse.Open(nvtraverse.Skiplist,
		nvtraverse.WithPolicy(nvtraverse.PolicyNVTraverse),
		nvtraverse.WithProfile(nvtraverse.NVRAM))
	if err != nil {
		panic(err)
	}

	// One session per goroutine: it carries the worker's statistics, flush
	// set and epoch slot.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		h := st.NewSession()
		base := uint64(w*1000 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := base; k < base+1000; k++ {
				h.Insert(k, k*2)
			}
			for k := base; k < base+1000; k += 2 {
				h.Delete(k)
			}
			// Atomic read-modify-write in the structure's critical section.
			for k := base + 1; k < base+100; k += 2 {
				h.Update(k, func(old uint64) uint64 { return old + 1 })
			}
		}()
	}
	wg.Wait()

	h := st.NewSession()
	if v, ok := h.Get(1002); ok {
		fmt.Printf("Get(1002) = %d\n", v)
	}
	// An ordered range scan: no flushes during the walk under NVTraverse,
	// one persistence batch at the destination.
	sum, count := uint64(0), 0
	h.Scan(1, 2000, func(k, v uint64) bool {
		sum += v
		count++
		return true
	})
	fmt.Printf("scan [1,2000]: %d keys, value sum %d\n", count, sum)
	fmt.Printf("size = %d\n", len(st.Contents()))

	stats := st.Stats()
	fmt.Printf("ops=%d flushes=%d fences=%d (%.2f flushes/op — constant, not per-node)\n",
		stats.Ops, stats.Flushes, stats.Fences, float64(stats.Flushes)/float64(stats.Ops))
}
