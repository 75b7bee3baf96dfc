package trace

// Stats summarises a trace the way Tables 5 and 6 of the paper do: total
// size N, unique references N', and the maximum number of non-cold misses.
type Stats struct {
	// N is the total number of references.
	N int
	// NUnique is N', the number of distinct addresses.
	NUnique int
	// MaxMisses is the number of non-cold misses the trace incurs on the
	// worst cache in the design space: a direct-mapped cache of depth one
	// (a single slot). This is the reference point against which the miss
	// budget K is expressed (K = 5..20% of MaxMisses in the experiments).
	MaxMisses int
}

// ComputeStats derives the Table 5/6 statistics for a trace.
//
// With a single cache slot, a reference hits exactly when it repeats the
// immediately preceding address; everything else is a miss, and a miss is
// cold the first time the address is ever seen. The direct computation here
// is cross-checked against the full cache simulator in integration tests.
// Each miss costs one probe of the strip's address index, usually inline.
func ComputeStats(t *Trace) Stats {
	s := Stats{N: t.Len()}
	var seen addrIndex
	seen.reset(-1)
	haveLast := false
	var last uint32
	for _, r := range t.Refs {
		if haveLast && r.Addr == last {
			continue // hit
		}
		last, haveLast = r.Addr, true
		if _, ok := seen.atHome(r.Addr); ok {
			s.MaxMisses++
		} else if _, cold := seen.put(r.Addr); !cold {
			s.MaxMisses++ // seen, but displaced from its home slot
		}
	}
	s.NUnique = seen.n
	return s
}
