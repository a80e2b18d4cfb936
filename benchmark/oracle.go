package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/dfs"
)

// The oracle is a second System — memory backend, Options{} (reuse
// off, nothing stored) — over identically generated data. After the
// measured phase (so its memory and CPU never show in the metrics) it
// replays the stream's appends and runs every sampled query; the
// sorted, re-encoded rows of the two user outputs must hash alike. The
// paper's contract is that reuse changes cost, never answers.

// verify replays stream on a fresh oracle and compares every sampled
// output of ph with it, folding the verdicts into ph.counts.
func verify(sp *spec, rc runConfig, stream [][][]op, ph *phase) error {
	fs := dfs.New()
	simScale, recordScale, err := sp.generate(fs, rc.seed, rc.quick)
	if err != nil {
		return fmt.Errorf("oracle: generating inputs: %w", err)
	}
	cfg := restore.DefaultConfig()
	cfg.SimScale, cfg.RecordScale = simScale, recordScale
	cfg.WorkflowWorkers = workflowWorkers
	cfg.Options = restore.Options{DisableTrace: true}
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	defer sys.Close()

	type key struct{ pass, client, index int }
	got := make(map[key]string, len(ph.checks))
	for _, ck := range ph.checks {
		got[key{ck.pass, ck.client, ck.index}] = ck.digest
	}
	// The data only changes at appends, so one oracle run per script
	// per data version answers every sample of it.
	want := map[string]string{}
	appends := 0
	for p := range stream {
		for c := range stream[p] {
			for i, o := range stream[p][c] {
				if o.kind == opAppend {
					if err := sp.appendInput(fs, rc.seed, rc.quick); err != nil {
						return fmt.Errorf("oracle: append: %w", err)
					}
					appends++
				}
				d, sampled := got[key{p, c, i}]
				if !sampled {
					continue
				}
				k := fmt.Sprintf("%s@%d", o.name, appends)
				if _, ok := want[k]; !ok {
					res, err := sys.ExecuteContext(context.Background(), o.script)
					if err != nil {
						return fmt.Errorf("oracle: %s: %w", o.name, err)
					}
					final := o.output
					if path := res.FinalOutputs[o.output]; path != "" {
						final = path
					}
					if want[k], err = digest(fs, final); err != nil {
						return fmt.Errorf("oracle: %s: %w", o.name, err)
					}
				}
				ph.counts.Checked++
				if d != want[k] {
					ph.counts.Mismatches++
					ph.errs = append(ph.errs, fmt.Sprintf("oracle mismatch: %s (pass %d, client %d, op %d)", o.name, p, c, i))
				}
			}
		}
	}
	return nil
}
