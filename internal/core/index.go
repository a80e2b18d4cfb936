package core

import (
	"sort"

	"repro/internal/physical"
)

// This file is the matcher's signature index: the structure that turns
// "test every repository entry for containment in the incoming job"
// (the paper's sequential scan, O(entries × plan²) per job) into "test
// only the entries whose signature footprint could possibly be
// contained" (O(plan) hash probes plus a handful of full traversals).
//
// The index exploits two necessary conditions of Algorithm 1
// containment. If entry plan E is contained in job plan J, then
//
//  1. every operator of E (excluding its final Store) maps to a J
//     operator with an equal canonical signature — so E's signature set
//     is a subset of J's, and in particular E's Load-path set is a
//     subset of J's (Load signatures embed the dataset path);
//  2. E's result operator — the op whose output the entry materializes
//     — maps to some J operator with the same signature, so E's
//     frontier signature occurs in J.
//
// Entries are therefore posted under their frontier signature, and a
// probe walks only the posting lists of signatures the job actually
// contains, discarding entries whose footprint is not a subset of the
// job's. Neither condition is sufficient, so the surviving candidates
// still run the full pairwise traversal — but candidates scale with the
// probing plan's size, not with the repository's.

// footprint is the matching-relevant signature summary of one entry
// plan, computed once when the entry enters the index.
type footprint struct {
	// frontier is the canonical signature of the plan's result op (the
	// op feeding the final Store); "" when the plan has none, in which
	// case the entry can never match and is not posted.
	frontier string
	// sigs are the sorted signatures of every non-Store op, kept as a
	// multiset: the containment mapping is injective (each entry op
	// must claim a distinct job op), so an entry with k ops of one
	// signature needs a job with at least k of them. Footprints
	// persisted before counts existed hold distinct signatures, which
	// is the same check with every count at one — a correct, weaker
	// filter.
	sigs []string
	// loads are the sorted dataset paths the plan reads. Load
	// signatures already appear in sigs; the separate list makes the
	// common reject (disjoint inputs) a one or two element comparison.
	loads []string
}

// footprintOf summarizes a plan for the index.
func footprintOf(p PlanSig) *footprint {
	f := &footprint{loads: p.loadPaths()}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind == physical.KStore {
			continue
		}
		f.sigs = append(f.sigs, op.Sig)
	}
	sort.Strings(f.sigs)
	if res := p.resultOp(); res >= 0 {
		if op := p.op(res); op != nil {
			f.frontier = op.Sig
		}
	}
	return f
}

// within reports whether the footprint's signature multiset is covered
// by a probing job's signature counts and its loads by the job's
// load-path set — the necessary condition for the entry's plan to be
// contained in the job's. Duplicate-op plans are filtered by
// multiplicity: a run of k equal signatures needs a job count of at
// least k.
func (f *footprint) within(sigCount map[string]int, loadSet map[string]bool) bool {
	for _, p := range f.loads {
		if !loadSet[p] {
			return false
		}
	}
	for i := 0; i < len(f.sigs); {
		j := i
		for j < len(f.sigs) && f.sigs[j] == f.sigs[i] {
			j++
		}
		if sigCount[f.sigs[i]] < j-i {
			return false
		}
		i = j
	}
	return true
}

// coveredBy reports whether f's footprint is a subset of g's — the
// necessary condition for f's plan to be contained in g's, used to
// prefilter the Rule 1 subsumption tests of the scan-order comparison.
func (f *footprint) coveredBy(g *footprint) bool {
	return subsetOf(f.loads, g.loads) && subsetOf(f.sigs, g.sigs)
}

// subsetOf reports whether a is a sub-multiset of b: every element of
// a claims a distinct occurrence in b. Both slices must be sorted;
// duplicates are respected (the walk consumes one b element per a
// element).
func subsetOf(a, b []string) bool {
	i := 0
	for _, s := range a {
		for i < len(b) && b[i] < s {
			i++
		}
		if i >= len(b) || b[i] != s {
			return false
		}
		i++
	}
	return true
}

// probeSets builds the signature counts and load-path set of a probing
// job plan (all op signatures, including Stores — extra elements
// weaken nothing, the sets sit on the superset side of every check).
func probeSets(p PlanSig) (sigCount map[string]int, loadSet map[string]bool) {
	sigCount = make(map[string]int, len(p.Ops))
	loadSet = map[string]bool{}
	for i := range p.Ops {
		op := &p.Ops[i]
		sigCount[op.Sig]++
		if op.Kind == physical.KLoad {
			loadSet[loadPathOf(op.Sig)] = true
		}
	}
	return sigCount, loadSet
}

// planIndex is the repository's inverted signature index. It is owned
// by the Repository and guarded by the repository lock: mutators run
// under the write side, candidate probes under the read side.
type planIndex struct {
	// meta holds the footprint of every indexed entry. Entries are
	// immutable (replacement swaps fresh pointers), so the pointer is a
	// stable identity for exactly one entry version.
	meta map[*Entry]*footprint
	// postings maps a frontier signature to the entries materializing
	// an output with that signature. Each entry appears in exactly one
	// posting list.
	postings map[string][]*Entry
	// pos maps entry ID to its current scan position, so candidate
	// sets can be replayed in the Rules 1/2 preference order the
	// sequential scan would visit them in.
	pos map[string]int
}

func newPlanIndex() *planIndex {
	return &planIndex{
		meta:     map[*Entry]*footprint{},
		postings: map[string][]*Entry{},
		pos:      map[string]int{},
	}
}

// add indexes e. Entries without a result op are summarized (their
// footprint still prefilters scan-order comparisons) but not posted:
// matchEntry can never succeed on them, which is exactly how the
// sequential scan treats them.
func (ix *planIndex) add(e *Entry) {
	ix.addWithFootprint(e, footprintOf(e.planSig()))
}

// addWithFootprint indexes e under a precomputed footprint — the
// durable-recovery path, where the footprint was persisted with the
// entry and the plan must not be decoded to rebuild the index.
func (ix *planIndex) addWithFootprint(e *Entry, f *footprint) {
	ix.meta[e] = f
	if f.frontier != "" {
		ix.postings[f.frontier] = append(ix.postings[f.frontier], e)
	}
}

// remove unindexes e; unknown entries are a no-op (tests splice entries
// into the repository behind the index's back).
func (ix *planIndex) remove(e *Entry) {
	f := ix.meta[e]
	if f == nil {
		return
	}
	delete(ix.meta, e)
	if f.frontier == "" {
		return
	}
	list := ix.postings[f.frontier]
	for i, x := range list {
		if x == e {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(ix.postings, f.frontier)
	} else {
		ix.postings[f.frontier] = list
	}
}

// renumber rebuilds the scan positions from the current entry order.
func (ix *planIndex) renumber(entries []*Entry) {
	if len(ix.pos) > 0 {
		ix.pos = make(map[string]int, len(entries))
	}
	for i, e := range entries {
		ix.pos[e.ID] = i
	}
}

// footprintFor returns the indexed footprint, computing one on the fly
// for entries outside the index.
func (ix *planIndex) footprintFor(e *Entry) *footprint {
	if f := ix.meta[e]; f != nil {
		return f
	}
	return footprintOf(e.planSig())
}

// candidates returns, in scan order, the entries whose footprint is a
// subset of the probing job's signature sets: every entry the
// sequential scan could match, and usually only a handful of them.
// missed, when non-nil, observes each entry that shared a frontier
// signature with the job but was rejected by the footprint-subset
// prefilter (trace provenance; nil on the untraced path).
func (ix *planIndex) candidates(sigCount map[string]int, loadSet map[string]bool, missed func(e *Entry)) []*Entry {
	var out []*Entry
	for sig := range sigCount {
		for _, e := range ix.postings[sig] {
			if ix.meta[e].within(sigCount, loadSet) {
				out = append(out, e)
			} else if missed != nil {
				missed(e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return ix.pos[out[i].ID] < ix.pos[out[j].ID] })
	return out
}

// MatcherStats is a point-in-time snapshot of the matcher subsystem:
// how the repository is being probed and how much pairwise-traversal
// work the signature index is saving.
type MatcherStats struct {
	// Probes counts indexed candidate probes served; Candidates totals
	// the entries those probes yielded, so Candidates/Probes is the
	// average candidate set per probe (versus Entries per scan).
	Probes     int64
	Candidates int64

	// Scans counts linear full-repository matching scans (rewriters in
	// LinearScan mode); ScanVisited totals the entries they visited.
	Scans       int64
	ScanVisited int64

	// FullTraversals counts Algorithm 1 pairwise traversals run;
	// Matches how many matching passes found an entry.
	FullTraversals int64
	Matches        int64

	// NegativeHits and SharedNegHits are always zero: no traversal is
	// skipped. They remain only because the benchmark's
	// core.matcher.neg_hit_ratio metric reads them.
	NegativeHits  int64
	SharedNegHits int64

	// IndexEntries and IndexSignatures size the inverted index: entries
	// currently indexed and distinct frontier signatures posted.
	IndexEntries    int
	IndexSignatures int
}
