package mapreduce

import (
	"slices"

	"repro/internal/expr"
)

// taskScratch is the working memory of one engine task slot: the
// tables and buffers a map or reduce task builds, uses and drops, kept
// by its slot (Engine.slots) so the slot's next task reuses their arrays
// instead of growing new ones. A PigMix job runs up to 144 map tasks,
// and the tables they rebuilt were most of the bytes the engine
// allocated. A slot runs one task at a time, so a task owns its scratch
// from the slot's receive to its return, and the engine keeps every
// scratch for its lifetime.
//
// What may live here is what dies with the task: the combiner's key
// index and partial states, the staged shuffle output, the reducer's
// inputs and groupByKey's table, runs and grouped records, the
// interpreter with its part files, Limit counters and output buffers. What
// outlives the task is copied out into memory of its own, allocated
// once at its exact size: the map task's per-partition records
// (partition) and the partial states they point at (drainCombined).
// Nothing a task returns may alias the scratch, because the slot's
// next task overwrites it.
type taskScratch struct {
	keys   keyIndex        // the combiner's distinct keys
	states []expr.AggState // their partial states; the reducer's merge states
	staged []rec           // the map task's shuffle records, in arrival order
	counts []int           // records per partition

	parts  [][]rec // the reducer's input, parts[m] from map task m
	table  []int32 // groupByKey's open-addressing table,
	runOf  []int32 // each record's run,
	runs   []keyRun
	next   []int32 // and where each run's next record goes
	starts []int
	recs   []rec // the reducer's records in group order

	x exec // the task's interpreter, with its part files and buffers
}

// reset empties every buffer and clears every pointer the task left,
// keeping the arrays, so an idle slot keeps no tuple alive.
func (s *taskScratch) reset() {
	s.keys.reset()
	clear(s.states)
	s.states = s.states[:0]
	clear(s.staged)
	s.staged = s.staged[:0]
	clear(s.parts)
	s.parts = s.parts[:0]
	clear(s.runs)
	s.runs = s.runs[:0]
	clear(s.recs)
	s.recs = s.recs[:0]
	s.x.reset() // an idle slot keeps no task's batch alive
}

// sized returns buf with length n, reusing its array when it is big
// enough. The contents are stale: the caller overwrites or clears them.
func sized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// partition moves the staged records into the task's shuffle output:
// per partition, in arrival order, carved from one array of exactly
// the staged records, which outlives the scratch.
func (s *taskScratch) partition(numRed int) [][]rec {
	s.counts = sized(s.counts, numRed)
	clear(s.counts)
	for i := range s.staged {
		s.counts[partitionOf(s.staged[i].hash, numRed)]++
	}
	recs := make([]rec, len(s.staged))
	out := make([][]rec, numRed)
	off := 0
	for p, n := range s.counts {
		out[p] = recs[off : off : off+n]
		off += n
	}
	for i := range s.staged {
		p := partitionOf(s.staged[i].hash, numRed)
		out[p] = append(out[p], s.staged[i])
	}
	return out
}
