// Package core implements ReStore: the plan matcher and rewriter, the
// sub-job enumerator, the enumerated sub-job selector, and the
// repository of stored MapReduce job outputs, layered over the dataflow
// compiler and MapReduce engine exactly as the paper layers ReStore over
// Pig and Hadoop (Elghandour & Aboulnaga, PVLDB 5(6), 2012).
package core

import (
	"sort"
	"strings"

	"repro/internal/physical"
)

// OpSig is the matching-relevant projection of a physical operator: its
// kind, canonical signature, and input wiring. Repository entries store
// OpSigs rather than executable operators — matching and rewriting only
// ever need signatures, and plain data serializes cleanly.
type OpSig struct {
	ID     int
	Kind   physical.Kind
	Sig    string
	Inputs []int
}

// PlanSig is the signature DAG of a physical plan.
type PlanSig struct {
	Ops []OpSig // sorted by ID
}

// SigOf projects a physical plan to its signature DAG.
func SigOf(p *physical.Plan) PlanSig {
	ops := p.Ops()
	out := PlanSig{Ops: make([]OpSig, 0, len(ops))}
	for _, op := range ops {
		out.Ops = append(out.Ops, OpSig{
			ID:     op.ID,
			Kind:   op.Kind,
			Sig:    op.Signature(),
			Inputs: append([]int(nil), op.InputIDs...),
		})
	}
	return out
}

// op returns the OpSig with the given ID, or nil.
func (p *PlanSig) op(id int) *OpSig {
	for i := range p.Ops {
		if p.Ops[i].ID == id {
			return &p.Ops[i]
		}
	}
	return nil
}

// topo returns op IDs in topological (inputs-first) order.
func (p *PlanSig) topo() []int {
	state := map[int]int{}
	var out []int
	var visit func(id int)
	visit = func(id int) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		if op := p.op(id); op != nil {
			for _, in := range op.Inputs {
				visit(in)
			}
		}
		state[id] = 2
		out = append(out, id)
	}
	for i := range p.Ops {
		visit(p.Ops[i].ID)
	}
	return out
}

// finalStore returns the plan's Store op (repository entry plans have
// exactly one) or nil.
func (p *PlanSig) finalStore() *OpSig {
	for i := range p.Ops {
		if p.Ops[i].Kind == physical.KStore {
			return &p.Ops[i]
		}
	}
	return nil
}

// resultOp returns the ID of the op feeding the final Store: the op
// whose output the repository entry materializes.
func (p *PlanSig) resultOp() int {
	st := p.finalStore()
	if st == nil || len(st.Inputs) == 0 {
		return -1
	}
	return st.Inputs[0]
}

// loadPaths returns the dataset paths read by the plan, sorted.
func (p *PlanSig) loadPaths() []string {
	seen := map[string]bool{}
	for i := range p.Ops {
		if p.Ops[i].Kind == physical.KLoad {
			seen[loadPathOf(p.Ops[i].Sig)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// loadPathOf extracts the dataset path from a Load signature
// ("load(path)").
func loadPathOf(sig string) string {
	return strings.TrimSuffix(strings.TrimPrefix(sig, "load("), ")")
}

// Fingerprint returns a canonical string for the whole plan, used to
// deduplicate repository entries. It renders ops in topological order
// with input positions normalized to topo indexes.
func (p *PlanSig) Fingerprint() string {
	order := p.topo()
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	var b strings.Builder
	for _, id := range order {
		op := p.op(id)
		b.WriteString(op.Sig)
		b.WriteByte('[')
		for i, in := range op.Inputs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(itoa(pos[in]))
		}
		b.WriteString("];")
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// OpCount returns the number of operators excluding the final Store,
// i.e. the amount of computation the plan represents.
func (p *PlanSig) OpCount() int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind != physical.KStore {
			n++
		}
	}
	return n
}
