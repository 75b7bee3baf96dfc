package main

import (
	"fmt"

	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/pkg/client"
)

// checker compares recorded answers with the oracle, building each
// trace's oracle on first use from the trace's generator.
type checker struct {
	w       *workload
	oracles map[int]*oracle
}

func newChecker(w *workload) *checker { return &checker{w: w, oracles: map[int]*oracle{}} }

func (c *checker) oracle(in int) (*oracle, error) {
	if o, ok := c.oracles[in]; ok {
		return o, nil
	}
	t := c.w.inputs[in].gen()
	d := c.w.inputs[in].digest
	if d == "" {
		d = server.TraceDigest(t)
	}
	o, err := newOracle(t, d)
	if err != nil {
		return nil, err
	}
	c.oracles[in] = o
	return o, nil
}

// checkOp reports the first failed or wrong request of one op.
func (c *checker) checkOp(o op, res opResult) error {
	if len(res.reqs) != len(o.reqs) {
		return fmt.Errorf("op has %d requests, %d recorded", len(o.reqs), len(res.reqs))
	}
	for j, r := range o.reqs {
		got := res.reqs[j]
		if got.err != nil {
			return fmt.Errorf("%s: %w", kindNames[r.kind], got.err)
		}
		if got.kind != r.kind {
			return fmt.Errorf("request %d recorded as %s, sent as %s", j, kindNames[got.kind], kindNames[r.kind])
		}
		orc, err := c.oracle(r.input)
		if err != nil {
			return err
		}
		switch r.kind {
		case kUpload, kGet:
			err = orc.checkInfo(got.ans.(client.TraceInfo))
		case kExplore:
			err = orc.checkExplore(got.ans.(exploreAnswer), r.k, r.kpct, r.pareto)
		case kSimulate:
			err = orc.checkSimulate(got.ans.(client.SimulateResponse), r.depth, r.assoc)
		case kVerify:
			err = orc.checkVerify(got.ans.(client.VerifyResponse), r.vk, r.vins)
		}
		if err != nil {
			return fmt.Errorf("%s of input %d: %w", kindNames[r.kind], r.input, err)
		}
	}
	return nil
}

// checkAll checks every op, returning the number that failed or answered
// wrong and up to a few of their errors.
func (c *checker) checkAll(ops []op, results []opResult) (failed int, errs []error) {
	for i, res := range results {
		if err := c.checkOp(ops[i], res); err != nil {
			failed++
			if len(errs) < 5 {
				errs = append(errs, fmt.Errorf("op %d: %w", i, err))
			}
		}
	}
	return failed, errs
}
