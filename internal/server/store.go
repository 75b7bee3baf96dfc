package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"github.com/example/cachedse/internal/trace"
)

// TraceEntry is one uploaded trace: its content digest, the decoded
// references, the Table 5/6 statistics and its kind. Explorations strip
// the trace afresh and keep nothing per entry; the result cache, keyed by
// digest and MaxDepth, is what makes a repeated or new-budget query
// cheap.
type TraceEntry struct {
	Digest   string
	Trace    *trace.Trace
	Stats    trace.Stats
	Kind     string // "instr", "data" or "mixed" (see classifyTrace)
	Uploaded time.Time
}

// classifyTrace buckets a trace by its reference kinds: "instr" when
// every reference is an instruction fetch, "data" when none is, "mixed"
// otherwise. The label backs the ?kind filter on GET /v1/traces.
func classifyTrace(t *trace.Trace) string {
	instr, data := false, false
	for _, r := range t.Refs {
		if r.Kind == trace.Instr {
			instr = true
		} else {
			data = true
		}
		if instr && data {
			return "mixed"
		}
	}
	if instr {
		return "instr"
	}
	return "data"
}

// TraceDigest returns the content digest of a trace: SHA-256 over the
// canonical (kind, little-endian address) byte stream of its references,
// truncated to 128 bits and hex encoded. The digest depends only on the
// reference sequence, so the same trace uploaded as .din text or .ctr
// binary keys identically.
func TraceDigest(t *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 5*4096)
	for i, r := range t.Refs {
		buf = append(buf, byte(r.Kind), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(buf[len(buf)-4:], r.Addr)
		if len(buf) == cap(buf) || i == len(t.Refs)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// TraceStore holds uploaded traces by digest with LRU eviction past a
// configured bound, so a long-lived daemon cannot accumulate traces
// without limit.
type TraceStore struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // of *TraceEntry, front = most recently used
	byDigest map[string]*list.Element
}

// NewTraceStore returns a store retaining at most max traces (minimum 1).
func NewTraceStore(max int) *TraceStore {
	if max < 1 {
		max = 1
	}
	return &TraceStore{
		max:      max,
		ll:       list.New(),
		byDigest: make(map[string]*list.Element),
	}
}

// Add registers a trace under its digest, which must be TraceDigest(t),
// returning its entry and whether it was already present (uploads are
// idempotent by content). Callers pass the digest in because they have
// usually computed it already, and hashing is a full pass over the trace.
//
// A new trace's statistics and kind are full passes too, so they run
// outside the store lock: a large upload does not stall other lookups.
// Concurrent Adds of one new digest may each scan it; the first insert
// wins and every later caller gets its entry with existed = true.
func (s *TraceStore) Add(digest string, t *trace.Trace) (entry *TraceEntry, existed bool) {
	if e, ok := s.Get(digest); ok {
		return e, true
	}
	entry = &TraceEntry{
		Digest:   digest,
		Trace:    t,
		Stats:    trace.ComputeStats(t),
		Kind:     classifyTrace(t),
		Uploaded: time.Now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byDigest[digest]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*TraceEntry), true
	}
	s.byDigest[digest] = s.ll.PushFront(entry)
	if s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.byDigest, oldest.Value.(*TraceEntry).Digest)
	}
	return entry, false
}

// Get returns the entry for digest, marking it most recently used.
func (s *TraceStore) Get(digest string) (*TraceEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byDigest[digest]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*TraceEntry), true
}

// Remove deletes the entry for digest, reporting whether it existed.
func (s *TraceStore) Remove(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byDigest[digest]
	if !ok {
		return false
	}
	s.ll.Remove(el)
	delete(s.byDigest, digest)
	return true
}

// List returns every entry, most recently used first.
func (s *TraceStore) List() []*TraceEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceEntry, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*TraceEntry))
	}
	return out
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
