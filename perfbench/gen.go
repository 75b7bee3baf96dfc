package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/example/cachedse/internal/trace"
)

// Trace generation. Every input the service sees is built here from the
// workload seed, before any timing starts; the program receives only the
// encoded bytes. The generators are the benchmark's own, so a change to
// the program's synthetic-trace helpers cannot change the benchmark's
// inputs.

// traceRNG derives an independent deterministic stream for one generated
// trace from the run seed, a workload salt and the trace's index.
func traceRNG(seed int64, salt string, index int) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(salt) {
		h = splitmix(h ^ uint64(c))
	}
	h = splitmix(h ^ uint64(index))
	return rand.New(rand.NewSource(int64(h)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shift moves addresses within the 16K-word region at base by off,
// wrapping, which keeps them distinct.
func shift(addrs []uint32, base, off uint32) {
	for i, a := range addrs {
		addrs[i] = base + (a-base+off)%(1<<14)
	}
}

// distinctAddrs draws count distinct word addresses in [base, base+span).
func distinctAddrs(rng *rand.Rand, base uint32, span, count int) []uint32 {
	if count > span {
		count = span
	}
	perm := rng.Perm(span)[:count]
	out := make([]uint32, count)
	for i, p := range perm {
		out[i] = base + uint32(p)
	}
	return out
}

// burstLen is the length of one access-pattern burst in a data trace.
const burstLen = 256

// dataTrace builds a data-like trace of exactly n references over exactly
// nUnique addresses: strided array sweeps (a quarter of them writes),
// Zipf-skewed scalar accesses and pointer chasing through a random cycle,
// interleaved in bursts. Every address is touched once up front, so N' is
// exact; the rest of the trace revisits them.
//
// rng draws the trace's structure (which pool element each reference
// touches) and place where each pool sits in memory. The analytical
// engine's conflict table depends only on the structure, so traces that
// share it but not their placement cost the engine the same while their
// addresses, digests and miss profiles all differ.
func dataTrace(rng, place *rand.Rand, n, nUnique int) *trace.Trace {
	nArr := nUnique / 2
	nZipf := nUnique * 3 / 10
	nChase := nUnique - nArr - nZipf
	// The pools sit in disjoint 16K-word regions, so addresses fit 16 bits
	// and the explored depth range stays the same for every placement.
	arr := make([]uint32, nArr)
	arrBase := uint32(place.Intn(1 << 12))
	for i := range arr {
		arr[i] = arrBase + uint32(i)
	}
	zipfPool := distinctAddrs(rng, 1<<14, 1<<14, nZipf)
	chase := distinctAddrs(rng, 2<<14, 1<<14, nChase)
	shift(zipfPool, 1<<14, uint32(place.Intn(1<<14)))
	shift(chase, 2<<14, uint32(place.Intn(1<<14)))
	// chase[i] links to chase[next[i]]: one random cycle through them all,
	// so the walk's reuse distance is always nChase.
	order := rng.Perm(nChase)
	next := make([]int, nChase)
	for i, c := range order {
		next[c] = order[(i+1)%nChase]
	}

	t := trace.New(n)
	add := func(a uint32, k trace.Kind) {
		if t.Len() < n {
			t.Append(trace.Ref{Addr: a, Kind: k})
		}
	}
	for _, a := range arr {
		add(a, trace.DataWrite)
	}
	for _, a := range zipfPool {
		add(a, trace.DataRead)
	}
	for _, a := range chase {
		add(a, trace.DataRead)
	}
	// The patterns take turns in bursts of fixed length, and the sweeps
	// cycle through strides 1, 2, 4 and 8, so every trace of a shape mixes
	// them in the same proportions and costs the engine about the same; the
	// seed moves only which addresses the bursts touch.
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(nZipf-1))
	cur := 0
	for burst := 0; t.Len() < n; burst++ {
		switch burst % 3 {
		case 0:
			stride := 1 << (burst / 3 % 4)
			start := rng.Intn(nArr)
			for i := 0; i < burstLen; i++ {
				k := trace.DataRead
				if i%4 == 3 {
					k = trace.DataWrite
				}
				add(arr[(start+i*stride)%nArr], k)
			}
		case 1:
			for i := 0; i < burstLen; i++ {
				add(zipfPool[zipf.Uint64()], trace.DataRead)
			}
		default:
			for i := 0; i < burstLen; i++ {
				cur = next[cur]
				add(chase[cur], trace.DataRead)
			}
		}
	}
	return t
}

// instrTrace builds an instruction-fetch trace of exactly n references:
// a program of straight-line blocks, each run as a counted loop, some
// holding an inner loop and some calling a shared subroutine, repeated
// until n fetches are emitted. Its unique count is the program's size,
// below 128 words. rng draws the program; place draws where its code
// sits, as for dataTrace.
func instrTrace(rng, place *rand.Rand, n int) *trace.Trace {
	type block struct {
		start, length, trips int
		innerAt, innerLen    int // inner loop at offset innerAt (innerLen 0: none)
		innerTrips           int
		call                 bool
	}
	pc := 0x1000 + place.Intn(1024)
	sub := block{start: pc, length: 6 + rng.Intn(6)}
	pc += sub.length
	var blocks []block
	for len(blocks) < 5 {
		b := block{start: pc, length: 8 + rng.Intn(10), trips: 2 + rng.Intn(12)}
		if rng.Intn(2) == 0 {
			b.innerAt = 1 + rng.Intn(b.length-2)
			b.innerLen = 3 + rng.Intn(5)
			b.innerTrips = 2 + rng.Intn(6)
		}
		b.call = rng.Intn(3) == 0
		pc += b.length + b.innerLen
		blocks = append(blocks, b)
	}
	t := trace.New(n)
	fetch := func(a int) bool {
		if t.Len() >= n {
			return false
		}
		t.Append(trace.Ref{Addr: uint32(a), Kind: trace.Instr})
		return true
	}
	for t.Len() < n {
		for _, b := range blocks {
			for trip := 0; trip < b.trips; trip++ {
				for i := 0; i < b.length; i++ {
					fetch(b.start + i)
					if b.innerLen > 0 && i == b.innerAt {
						for it := 0; it < b.innerTrips; it++ {
							for j := 0; j < b.innerLen; j++ {
								fetch(b.start + b.length + j)
							}
						}
					}
				}
				if b.call {
					for i := 0; i < sub.length; i++ {
						fetch(sub.start + i)
					}
				}
			}
		}
	}
	return t
}

// smallTrace is the cluster and warm-path input: a data-like trace small
// enough that its first exploration costs milliseconds, drawn wholly
// from rng.
func smallTrace(rng *rand.Rand, n, nUnique int) *trace.Trace {
	return dataTrace(rng, rng, n, nUnique)
}

func encodeCTZ1(t *trace.Trace) []byte {
	var buf bytes.Buffer
	if err := trace.WriteCTZ1(&buf, t); err != nil {
		panic(fmt.Sprintf("perfbench: encoding ctz1: %v", err)) // generated traces are always encodable
	}
	return buf.Bytes()
}

// appendDin appends t in Dinero text form ("<label> <hex address>" per
// line, as trace.WriteText writes it) to buf.
func appendDin(buf []byte, t *trace.Trace) []byte {
	for _, r := range t.Refs {
		label := byte('0')
		switch r.Kind {
		case trace.DataWrite:
			label = '1'
		case trace.Instr:
			label = '2'
		}
		buf = append(buf, label, ' ')
		buf = strconv.AppendUint(buf, uint64(r.Addr), 16)
		buf = append(buf, '\n')
	}
	return buf
}
