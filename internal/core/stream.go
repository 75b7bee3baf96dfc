package core

import (
	"context"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// stripReaderWithSpan runs the streaming strip pass over a reference
// stream inside a "strip" span when ctx carries a recorder. The stream is
// consumed to completion into sc's pooled stripped form; only it and one
// decoder block are ever resident, never the full reference slice.
func stripReaderWithSpan(ctx context.Context, rr trace.RefReader, sc *Scratch) (*trace.Stripped, error) {
	_, span := obs.StartSpan(ctx, "strip")
	s, err := trace.StripReaderInto(rr, &sc.stripped)
	if err != nil {
		return nil, err
	}
	sc.note(s.N())
	if span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", s.NUnique())
		span.End()
	}
	return s, nil
}
