// Package cache implements a trace-driven set-associative cache simulator:
// the "$ Simulator" box in the traditional design-simulate-analyze loop of
// Figure 1(a) of the paper, and the oracle against which the analytical
// results of internal/core are verified.
//
// The paper's fixed parameters — line size of one word, LRU replacement,
// write-back — are Config defaults, but the simulator also supports larger
// lines, FIFO/Random/PLRU replacement and write-through with or without
// write-allocate so the DSE harness can host the paper's future-work
// extensions.
package cache

import (
	"fmt"
	"math/rand"

	"github.com/example/cachedse/internal/trace"
)

// Replacement selects a victim way on a miss in a full set.
type Replacement uint8

const (
	// LRU evicts the least recently used way (the paper's fixed policy).
	LRU Replacement = iota
	// FIFO evicts ways in arrival order regardless of later touches.
	FIFO
	// Random evicts a pseudo-random way (deterministically seeded).
	Random
	// PLRU evicts using a tree-based pseudo-LRU approximation.
	PLRU
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case PLRU:
		return "PLRU"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// WritePolicy governs how stores interact with memory.
type WritePolicy uint8

const (
	// WriteBack marks lines dirty and writes them to memory on eviction
	// (the paper's fixed policy).
	WriteBack WritePolicy = iota
	// WriteThrough forwards every store to memory immediately.
	WriteThrough
)

// String returns the policy name.
func (w WritePolicy) String() string {
	switch w {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(w))
	}
}

// Config describes one cache instance in the design space. Depth is the
// number of rows D (sets); Assoc the degree of associativity A. Cache size
// in words is Depth*Assoc*LineWords (the paper states size as 2·D·A for its
// two-byte words; we report words and leave unit conversion to callers).
type Config struct {
	Depth     int         // number of sets; must be a power of two >= 1
	Assoc     int         // ways per set; >= 1
	LineWords int         // words per line; 0 means 1 (the paper's model)
	Repl      Replacement // replacement policy; default LRU
	Write     WritePolicy // write policy; default write-back
	Allocate  bool        // write-allocate on store miss (default true via NewCache)
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.Depth < 1 || c.Depth&(c.Depth-1) != 0 {
		return fmt.Errorf("cache: depth %d is not a power of two >= 1", c.Depth)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	lw := c.LineWords
	if lw == 0 {
		lw = 1
	}
	if lw < 1 || lw&(lw-1) != 0 {
		return fmt.Errorf("cache: line size %d words is not a power of two >= 1", lw)
	}
	return nil
}

// SizeWords returns the total capacity in words.
func (c Config) SizeWords() int {
	lw := c.LineWords
	if lw == 0 {
		lw = 1
	}
	return c.Depth * c.Assoc * lw
}

// String renders the configuration compactly, e.g. "D=256 A=2 LRU wb".
func (c Config) String() string {
	wb := "wb"
	if c.Write == WriteThrough {
		wb = "wt"
	}
	return fmt.Sprintf("D=%d A=%d %s %s", c.Depth, c.Assoc, c.Repl, wb)
}

// Results accumulates simulation statistics.
type Results struct {
	Accesses   int // total references simulated
	Hits       int
	ColdMisses int // first-ever touch of a line (unavoidable)
	Misses     int // non-cold misses: the paper's figure of merit
	Writebacks int // dirty evictions (write-back) or stores (write-through)
}

// TotalMisses returns cold plus non-cold misses.
func (r Results) TotalMisses() int { return r.ColdMisses + r.Misses }

// MissRate returns non-cold misses per access (0 for an empty run).
func (r Results) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	// lastUse is the access stamp for LRU; arrival the fill stamp for FIFO.
	lastUse int
	arrival int
}

// Cache is a simulated cache instance.
type Cache struct {
	// OnEvict, when non-nil, is called for every valid line displaced by
	// a fill, with the line's word address and dirtiness. Hierarchies use
	// it to forward write-back traffic to the next level.
	OnEvict func(lineAddr uint32, dirty bool)

	cfg       Config
	lineShift uint // log2(LineWords)
	idxMask   uint32
	idxShift  uint // == lineShift
	sets      [][]line
	plruBits  [][]bool // per-set PLRU tree bits
	rng       *rand.Rand
	seen      map[uint32]bool // line addresses ever touched, for cold classification
	clock     int
	res       Results
}

// NewCache builds a cache for the given configuration. Write-allocate
// defaults to true unless the caller explicitly constructed a Config with
// Allocate=false and a non-zero Write policy (write-through no-allocate is
// the only common no-allocate pairing). The zero Config value is invalid;
// use at least Depth and Assoc.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LineWords == 0 {
		cfg.LineWords = 1
	}
	if cfg.Write == WriteBack {
		// Write-back without allocate cannot track dirtiness; force allocate.
		cfg.Allocate = true
	}
	c := &Cache{
		cfg:  cfg,
		sets: make([][]line, cfg.Depth),
		seen: make(map[uint32]bool, 1024),
	}
	if cfg.Repl == Random {
		// Only Random consults the generator, and seeding one allocates
		// several KiB.
		c.rng = rand.New(rand.NewSource(0x5eed))
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
	}
	if cfg.Repl == PLRU {
		// The implicit tree (node i's children at 2i+1/2i+2) spans the
		// next power of two above A, so non-power-of-two associativities
		// need the full heap's worth of bits, not A.
		bits := 1
		for bits < cfg.Assoc {
			bits <<= 1
		}
		c.plruBits = make([][]bool, cfg.Depth)
		for i := range c.plruBits {
			c.plruBits[i] = make([]bool, bits)
		}
	}
	for ls := cfg.LineWords; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.idxShift = c.lineShift
	c.idxMask = uint32(cfg.Depth - 1)
	return c, nil
}

// MustNew is NewCache that panics on configuration error; for tests and
// internal sweeps over known-valid grids.
func MustNew(cfg Config) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Results returns the statistics accumulated so far.
func (c *Cache) Results() Results { return c.res }

// Access simulates one reference and reports whether it hit.
func (c *Cache) Access(r trace.Ref) bool {
	c.clock++
	c.res.Accesses++
	lineAddr := r.Addr >> c.lineShift
	idx := int(lineAddr & c.idxMask)
	tag := lineAddr >> uint(log2(c.cfg.Depth))
	set := c.sets[idx]
	isWrite := r.Kind == trace.DataWrite

	// Probe.
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			c.res.Hits++
			set[w].lastUse = c.clock
			if c.cfg.Repl == PLRU {
				c.plruTouch(idx, w)
			}
			if isWrite {
				if c.cfg.Write == WriteBack {
					set[w].dirty = true
				} else {
					c.res.Writebacks++
				}
			}
			return true
		}
	}

	// Miss.
	if c.seen[lineAddr] {
		c.res.Misses++
	} else {
		c.res.ColdMisses++
		c.seen[lineAddr] = true
	}

	if isWrite && !c.cfg.Allocate && c.cfg.Write == WriteThrough {
		// Write-through no-allocate: store goes straight to memory.
		c.res.Writebacks++
		return false
	}

	// Fill: pick an invalid way, else a victim per policy.
	victim := -1
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.pickVictim(idx)
		if set[victim].dirty {
			c.res.Writebacks++
		}
		if c.OnEvict != nil {
			victimLine := set[victim].tag<<uint(log2(c.cfg.Depth)) | uint32(idx)
			c.OnEvict(victimLine, set[victim].dirty)
		}
	}
	set[victim] = line{tag: tag, valid: true, lastUse: c.clock, arrival: c.clock}
	if c.cfg.Repl == PLRU {
		c.plruTouch(idx, victim)
	}
	if isWrite {
		if c.cfg.Write == WriteBack {
			set[victim].dirty = true
		} else {
			c.res.Writebacks++
		}
	}
	return false
}

func (c *Cache) pickVictim(idx int) int {
	set := c.sets[idx]
	switch c.cfg.Repl {
	case LRU:
		v, best := 0, set[0].lastUse
		for w := 1; w < len(set); w++ {
			if set[w].lastUse < best {
				v, best = w, set[w].lastUse
			}
		}
		return v
	case FIFO:
		v, best := 0, set[0].arrival
		for w := 1; w < len(set); w++ {
			if set[w].arrival < best {
				v, best = w, set[w].arrival
			}
		}
		return v
	case Random:
		return c.rng.Intn(len(set))
	case PLRU:
		return c.plruVictim(idx)
	default:
		return 0
	}
}

// plruTouch updates the PLRU tree so the path to way w is protected.
// The tree is stored implicitly: node i has children 2i+1 and 2i+2; for
// non-power-of-two associativities the tree degenerates gracefully to the
// nearest power of two with unused leaves skipped by plruVictim.
func (c *Cache) plruTouch(idx, w int) {
	n := len(c.sets[idx])
	node, lo, hi := 0, 0, n
	bits := c.plruBits[idx]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			bits[node] = true // true: next victim on the right
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = false
			node = 2*node + 2
			lo = mid
		}
	}
}

func (c *Cache) plruVictim(idx int) int {
	n := len(c.sets[idx])
	node, lo, hi := 0, 0, n
	bits := c.plruBits[idx]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// Flush invalidates every line, as an embedded RTOS does on a context
// switch or DMA hand-off. Dirty lines are counted as writebacks (and
// reported to OnEvict); the cold-miss classifier is unaffected — a line
// seen before the flush still misses non-cold after it.
func (c *Cache) Flush() {
	for idx := range c.sets {
		for w := range c.sets[idx] {
			l := &c.sets[idx][w]
			if !l.valid {
				continue
			}
			if l.dirty {
				c.res.Writebacks++
			}
			if c.OnEvict != nil {
				lineAddr := l.tag<<uint(log2(c.cfg.Depth)) | uint32(idx)
				c.OnEvict(lineAddr, l.dirty)
			}
			*l = line{}
		}
	}
}

// Run simulates an entire trace on a fresh statistics window and returns
// the results of that window only.
func (c *Cache) Run(t *trace.Trace) Results {
	start := c.res
	for _, r := range t.Refs {
		c.Access(r)
	}
	end := c.res
	return Results{
		Accesses:   end.Accesses - start.Accesses,
		Hits:       end.Hits - start.Hits,
		ColdMisses: end.ColdMisses - start.ColdMisses,
		Misses:     end.Misses - start.Misses,
		Writebacks: end.Writebacks - start.Writebacks,
	}
}

// Simulate is the one-shot convenience: build a cache for cfg, run the
// trace, return results.
func Simulate(cfg Config, t *trace.Trace) (Results, error) {
	c, err := NewCache(cfg)
	if err != nil {
		return Results{}, err
	}
	return c.Run(t), nil
}

// Contains reports whether the line holding addr is currently resident;
// for tests and debugging.
func (c *Cache) Contains(addr uint32) bool {
	lineAddr := addr >> c.lineShift
	idx := int(lineAddr & c.idxMask)
	tag := lineAddr >> uint(log2(c.cfg.Depth))
	for _, l := range c.sets[idx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
