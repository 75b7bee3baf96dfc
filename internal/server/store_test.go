package server

import (
	"sync"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

// Concurrent uploads of one new trace race through Add's unlocked scan:
// exactly one insert wins, and every caller leaves with the winner's
// entry.
func TestTraceStoreConcurrentAddSameDigest(t *testing.T) {
	tr := trace.New(0)
	for i := 0; i < 100_000; i++ {
		tr.Append(trace.Ref{Addr: uint32(i % 4096), Kind: trace.Kind(i % 3)})
	}
	digest := TraceDigest(tr)
	store := NewTraceStore(4)

	const goroutines = 8
	entries := make([]*TraceEntry, goroutines)
	existed := make([]bool, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			entries[g], existed[g] = store.Add(digest, tr)
		}(g)
	}
	close(start)
	wg.Wait()

	fresh := 0
	for g := range entries {
		if !existed[g] {
			fresh++
		}
		if entries[g] != entries[0] {
			t.Errorf("goroutine %d got a different entry than goroutine 0", g)
		}
	}
	if fresh != 1 {
		t.Errorf("%d Adds reported a new trace, want exactly 1", fresh)
	}
	if got, ok := store.Get(digest); !ok || got != entries[0] || store.Len() != 1 {
		t.Errorf("store holds %d entries; Get = (%p, %v), want the shared entry %p", store.Len(), got, ok, entries[0])
	}
	if e := entries[0]; e.Stats != trace.ComputeStats(tr) || e.Kind != "mixed" {
		t.Errorf("entry stats %+v kind %q, want %+v mixed", e.Stats, e.Kind, trace.ComputeStats(tr))
	}
}
