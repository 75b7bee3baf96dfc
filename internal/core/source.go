package core

import (
	"context"
	"fmt"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/trace"
)

// Source is the input to Explore and ExploreAnalytical. Two shapes are
// accepted:
//
//	*trace.Trace  — an in-memory trace; the engine strips it
//	Prelude       — pre-built prelude structures, for reuse across
//	                repeated explorations of the same trace
//
// Any other value, a trace.RefReader included, fails with an
// "unsupported Source type" error.
//
// It is deliberately `any` rather than a method interface: *trace.Trace
// lives below core in the import graph and cannot implement a core-defined
// interface, and a sealed type switch keeps the accepted set explicit.
type Source any

// Prelude bundles the outputs of the paper engine's first phase — the
// stripped trace and its conflict table — so callers exploring the same
// trace under several Options can pay for strip + MRCT construction once.
// ExploreAnalytical consumes both; Explore's stack-distance engine needs
// only Stripped and ignores MRCT.
type Prelude struct {
	Stripped *trace.Stripped
	MRCT     *MRCT
}

// stripSource normalises a Source into the stripped trace, running the
// strip pass against sc's pooled buffers unless the source is a Prelude,
// whose caller-owned Stripped outlives the scratch. The strip phase
// carries the core.strip failpoint so the chaos suite can fail an
// exploration before the engine runs.
func stripSource(ctx context.Context, src Source, sc *Scratch) (*trace.Stripped, error) {
	switch v := src.(type) {
	case *trace.Trace:
		if v == nil {
			return nil, fmt.Errorf("core: Explore given a nil *trace.Trace")
		}
		if err := faultinject.Hit("core.strip"); err != nil {
			return nil, err
		}
		return stripWithSpan(ctx, v, sc), nil
	case Prelude:
		if v.Stripped == nil {
			return nil, fmt.Errorf("core: Prelude has no Stripped trace")
		}
		return v.Stripped, nil
	case nil:
		return nil, fmt.Errorf("core: Explore given a nil Source")
	default:
		return nil, fmt.Errorf("core: unsupported Source type %T (want *trace.Trace or core.Prelude)", src)
	}
}

// resolveSource normalises a Source into the (stripped, MRCT) pair the
// paper's postlude consumes: a Prelude passes through as is, any other
// shape is stripped and its conflict table built (core.mrct failpoint).
func resolveSource(ctx context.Context, src Source, sc *Scratch) (*trace.Stripped, *MRCT, error) {
	if v, ok := src.(Prelude); ok {
		if v.Stripped == nil || v.MRCT == nil {
			return nil, nil, fmt.Errorf("core: Prelude needs both Stripped and MRCT (got %v, %v)", v.Stripped != nil, v.MRCT != nil)
		}
		return v.Stripped, v.MRCT, nil
	}
	s, err := stripSource(ctx, src, sc)
	if err != nil {
		return nil, nil, err
	}
	return buildPreludeMRCT(ctx, s, sc)
}

// buildPreludeMRCT finishes the prelude from a stripped trace into sc's
// pooled conflict table, valid until the scratch is reused.
func buildPreludeMRCT(ctx context.Context, s *trace.Stripped, sc *Scratch) (*trace.Stripped, *MRCT, error) {
	if err := faultinject.Hit("core.mrct"); err != nil {
		return nil, nil, err
	}
	if err := buildMRCT(ctx, s, sc, &sc.mrct); err != nil {
		return nil, nil, err
	}
	return s, &sc.mrct, nil
}
