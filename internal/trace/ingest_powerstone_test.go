package trace_test

import (
	"bytes"
	"testing"

	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

// TestIngestPowerStone holds the ingest passes to their plain
// formulations on the paper's own workload: for every captured
// instruction and data trace of the 12 PowerStone benchmarks, the din
// text decodes back to the trace, and Strip and ComputeStats equal a
// map-based strip and a map-based statistics pass.
func TestIngestPowerStone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 benchmark kernels")
	}
	for _, name := range powerstone.Names() {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range []struct {
			tag string
			tr  *trace.Trace
		}{{"instr", res.Instr}, {"data", res.Data}} {
			t.Run(name+"/"+stream.tag, func(t *testing.T) {
				checkIngest(t, stream.tr)
			})
		}
	}
}

func checkIngest(t *testing.T, tr *trace.Trace) {
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Decode(&din, trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded %d refs, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Refs {
		if back.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d decoded as %+v, want %+v", i, back.Refs[i], tr.Refs[i])
		}
	}

	index := make(map[uint32]int)
	var unique []uint32
	stats := trace.Stats{N: tr.Len()}
	s := trace.Strip(tr)
	for i, r := range tr.Refs {
		id, seen := index[r.Addr]
		if !seen {
			id = len(unique)
			index[r.Addr] = id
			unique = append(unique, r.Addr)
		} else if r.Addr != tr.Refs[i-1].Addr {
			stats.MaxMisses++
		}
		if s.IDs[i] != id {
			t.Fatalf("IDs[%d] = %d, want %d", i, s.IDs[i], id)
		}
	}
	stats.NUnique = len(unique)
	if s.N() != tr.Len() || s.NUnique() != len(unique) {
		t.Fatalf("strip N=%d N'=%d, want N=%d N'=%d", s.N(), s.NUnique(), tr.Len(), len(unique))
	}
	for id, a := range unique {
		if s.Unique[id] != a {
			t.Fatalf("Unique[%d] = %#x, want %#x", id, s.Unique[id], a)
		}
	}
	if got := trace.ComputeStats(tr); got != stats {
		t.Fatalf("ComputeStats = %+v, want %+v", got, stats)
	}
}
