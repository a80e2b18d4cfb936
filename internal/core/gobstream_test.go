package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/dfs/dfstest"
	"repro/internal/physical"
)

// freshGob is what every record was encoded with before gobStream: a
// new Encoder per value.
func freshGob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("fresh encode: %v", err)
	}
	return buf.Bytes()
}

// checkStream holds one value's gobStream bytes to a fresh Encoder's,
// and decodes them with a fresh Decoder. gob writes a map in Go's
// iteration order, so the bytes repeat only for values whose maps hold
// at most one key; a value with more is held to decoding alone.
func checkStream[T any](t testing.TB, s *gobStream[T], v *T, exact bool) {
	t.Helper()
	got, err := s.encode(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if exact && !bytes.Equal(got, freshGob(t, v)) {
		t.Fatalf("%T: stream wrote\n%x\nfresh encoder wrote\n%x", *v, got, freshGob(t, v))
	}
	var back T
	if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&back); err != nil {
		t.Fatalf("%T: fresh decoder: %v", *v, err)
	}
	if exact && !bytes.Equal(freshGob(t, &back), got) {
		t.Fatalf("%T: decoded value encodes differently", *v)
	}
}

// fuzzPlan is a plan signature of n operators named after s.
func fuzzPlan(s string, n int) PlanSig {
	p := PlanSig{}
	for i := range n {
		p.Ops = append(p.Ops, OpSig{ID: i, Kind: physical.Kind(i % 4), Sig: fmt.Sprintf("%s#%d", s, i), Inputs: make([]int, i%3)})
	}
	return p
}

// fuzzEntry is an entry record whose shape flags picks: maps absent,
// empty or with one key (keys more than one are checked by decoding
// only), a Merge spec or none, and an inventory of up to n files.
func fuzzEntry(t testing.TB, s string, n int, flags uint8) *entryRecord {
	rec := &entryRecord{
		ID:          s,
		Fingerprint: s + "|fp",
		Plan:        freshGob(t, fuzzPlan(s, n%7)),
		OutputPath:  "out/" + s,
		Stats:       EntryStats{InputSimBytes: int64(n), JobSimTime: time.Duration(n) * time.Millisecond},
		WholeJob:    flags&1 != 0,
		Sigs:        strings.Fields(strings.Repeat(s+" ", n%4)),
		Pos:         n,
		Seq:         uint64(n) * 3,
	}
	switch flags >> 1 & 3 {
	case 1:
		rec.InputVersions, rec.InputBases = map[string]int64{}, map[string]dfs.Snapshot{}
	case 2, 3:
		snap := dfs.Snapshot{Version: int64(n)}
		for i := range n % 600 {
			snap.Files = append(snap.Files, dfs.FileStat{Path: fmt.Sprintf("%s/part-%05d", s, i), Size: int64(i)})
			snap.Bytes += int64(i)
		}
		rec.InputVersions = map[string]int64{s: int64(n)}
		rec.InputBases = map[string]dfs.Snapshot{s: snap}
	}
	if flags&8 != 0 {
		rec.Merge = &physical.MergeSpec{Kind: physical.MergeGroup, KeyCol: n % 3,
			Cols: []physical.MergeCol{{Kind: physical.MergeColKind(n % 2), SumCol: 1, CountCol: 2}}}
	}
	return rec
}

// FuzzGobStream holds every record type's gobStream to a fresh Encoder
// byte for byte: log records (put and remove, with and without a Merge
// spec, inventories empty and large), plan signatures, manifests and
// lease records, each decoded again by a fresh Decoder. The streams
// are the package's own, primed once per process as in production.
//
//	go test ./internal/core -run '^$' -fuzz FuzzGobStream -fuzztime 30s
func FuzzGobStream(f *testing.F) {
	f.Add("e1", uint16(0), uint8(0), uint64(0))
	f.Add("w1e12", uint16(5), uint8(0xff), uint64(1<<40))
	f.Add("", uint16(599), uint8(6), uint64(7))
	f.Fuzz(func(t *testing.T, s string, n uint16, flags uint8, seq uint64) {
		size := int(n)
		put := &logRecord{Seq: seq, Writer: s, Op: opPut, Entry: fuzzEntry(t, s, size, flags)}
		remove := &logRecord{Seq: seq, Writer: s, Op: opRemove, RemoveID: s, RemoveSeq: seq / 2}
		checkStream(t, &logStream, put, true)
		checkStream(t, &logStream, remove, true)
		plan := fuzzPlan(s, size%40)
		checkStream(t, &planStream, &plan, true)
		m := manifestFile{Format: manifestFormat, FoldedThrough: seq}
		for i := range size % 5 {
			m.Entries = append(m.Entries, fuzzEntry(t, fmt.Sprint(s, i), size+i, flags+uint8(i)))
		}
		checkStream(t, &manifestStream, &m, true)
		lease := leaseRecord{Fingerprint: s, Owner: s + "w", Fence: seq, ExpiresUnixNano: int64(seq)}
		checkStream(t, &leaseStream, &lease, true)
		// Several keys: gob's map order is random, so only decodes.
		if put.Entry.InputVersions != nil {
			put.Entry.InputVersions[s+"/more"] = 1
			put.Entry.InputBases[s+"/more"] = dfs.Snapshot{Version: 1}
			checkStream(t, &logStream, put, false)
		}
	})
}

// TestGobStreamConcurrent encodes from several goroutines at once
// through the shared streams; each value's bytes are still a fresh
// Encoder's. Run it with -race.
func TestGobStreamConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				s := fmt.Sprintf("g%d-%d", g, i)
				lease := &leaseRecord{Fingerprint: s, Owner: "w", Fence: uint64(i), ExpiresUnixNano: int64(g)}
				put := &logRecord{Seq: uint64(i), Writer: s, Op: opPut, Entry: fuzzEntry(t, s, i, uint8(i))}
				l, err1 := leaseStream.encode(lease)
				r, err2 := logStream.encode(put)
				if err1 != nil || err2 != nil || !bytes.Equal(l, freshGob(t, lease)) || !bytes.Equal(r, freshGob(t, put)) {
					t.Errorf("%s: concurrent encode differs from a fresh encoder (%v, %v)", s, err1, err2)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failing is a record field whose encoding fails on demand.
type failing struct{ Fail bool }

var errFailing = errors.New("failing field")

func (f failing) GobEncode() ([]byte, error) {
	if f.Fail {
		return nil, errFailing
	}
	return []byte{1}, nil
}

func (f *failing) GobDecode([]byte) error { return nil }

// TestGobStreamRecoversFromError: an Encoder keeps its first error, so
// after a failed encode the stream primes a new one, and the next value
// is again what a fresh Encoder writes.
func TestGobStreamRecoversFromError(t *testing.T) {
	type record struct {
		N int
		F failing
	}
	var s gobStream[record]
	checkStream(t, &s, &record{N: 1}, true)
	if _, err := s.encode(&record{N: 2, F: failing{Fail: true}}); !errors.Is(err, errFailing) {
		t.Fatalf("encode of a failing field: %v", err)
	}
	checkStream(t, &s, &record{N: 3}, true)
}

// TestGobStreamDropsLargeEncoder: after a value message larger than
// maxPrimedMessage the stream lets its Encoder and the buffer it holds
// go, and the values after it still match a fresh Encoder.
func TestGobStreamDropsLargeEncoder(t *testing.T) {
	var s gobStream[manifestFile]
	small := manifestFile{Format: manifestFormat, Entries: []*entryRecord{fuzzEntry(t, "s", 3, 4)}}
	checkStream(t, &s, &small, true)
	if s.enc == nil {
		t.Fatal("small manifest dropped the encoder")
	}
	large := manifestFile{Format: manifestFormat}
	for i := range 8 {
		large.Entries = append(large.Entries, fuzzEntry(t, fmt.Sprint("large", i), 599, 4))
	}
	checkStream(t, &s, &large, true)
	if s.enc != nil {
		t.Fatalf("a %d-entry manifest kept its encoder", len(large.Entries))
	}
	checkStream(t, &s, &small, true)
}

// recordingFS keeps a copy of every file written through WriteFile and
// WriteFileIf, the two calls the journal, the manifest and the leases
// write with.
type recordingFS struct {
	dfs.Backend
	mu     sync.Mutex
	writes []recordedWrite
}

type recordedWrite struct {
	path string
	data []byte
}

func (r *recordingFS) note(p string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, recordedWrite{p, bytes.Clone(data)})
}

func (r *recordingFS) WriteFile(p string, data []byte) error {
	r.note(p, data)
	return r.Backend.WriteFile(p, data)
}

func (r *recordingFS) WriteFileIf(p string, data []byte, expect int64) (int64, bool) {
	r.note(p, data)
	return r.Backend.WriteFileIf(p, data, expect)
}

// sameAsFresh decodes a written file as a T and requires a fresh
// Encoder to write exactly its bytes for the decoded value.
func sameAsFresh[T any](t *testing.T, w recordedWrite) T {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(w.data)).Decode(&v); err != nil {
		t.Fatalf("%s: %v", w.path, err)
	}
	if !bytes.Equal(freshGob(t, &v), w.data) {
		t.Errorf("%s: %T written differently from a fresh encoder", w.path, v)
	}
	return v
}

// TestDurableFilesMatchFreshEncoder is the format check of the primed
// streams on real traffic: every journal record, plan blob, manifest
// and lease record a durable repository and its lease manager write is
// byte for byte what a fresh gob.Encoder writes for the same value —
// what every earlier build wrote — so old and new binaries read each
// other's directories. Entries read one input each, so every map holds
// one key and the bytes repeat.
func TestDurableFilesMatchFreshEncoder(t *testing.T) {
	fs := &recordingFS{Backend: dfstest.New(t)}
	dl, repo := openDurable(t, fs, "sys/repo")
	var entries []*Entry
	for i, src := range indexCorpus {
		e := durableEntry(t, fs, src, i)
		if len(e.InputVersions) != 1 {
			continue
		}
		e.InputBases = map[string]dfs.Snapshot{}
		for p := range e.InputVersions {
			for k := range 3 {
				if err := fs.WriteFile(fmt.Sprintf("%s/part-%05d", p, k+3*i), []byte("row\n")); err != nil {
					t.Fatal(err)
				}
			}
			e.InputBases[p] = dfs.TakeSnapshot(fs, p)
			e.InputVersions[p] = e.InputBases[p].Version
		}
		if i%2 == 0 {
			e.Merge = &physical.MergeSpec{Kind: physical.MergeGroup, Cols: []physical.MergeCol{{SumCol: 1}}}
		}
		entries = append(entries, repo.Insert(e))
	}
	if len(entries) < 3 {
		t.Fatalf("%d single-input entries in the corpus", len(entries))
	}
	replacement := *entries[0]
	replacement.ID, replacement.fp = "", ""
	repo.Insert(&replacement)
	repo.EvictUnpinned([]string{entries[1].ID}, nil)
	if err := dl.Compact(); err != nil {
		t.Fatal(err)
	}
	repo.Insert(durableEntry(t, fs, indexCorpus[0], 90))

	lm := NewLeaseManager(fs, "sys/locks", "w1", time.Minute)
	defer lm.Close()
	if l, ok := lm.TryAcquire(entries[0].fingerprint()); !ok {
		t.Fatal("lease not granted")
	} else {
		lm.Release(l)
	}
	lm.Pin(entries[2].ID)
	lm.Unpin(entries[2].ID)

	counts := map[string]int{}
	for _, w := range fs.writes {
		switch {
		case strings.HasPrefix(w.path, "sys/repo/log/"):
			rec := sameAsFresh[logRecord](t, w)
			if rec.Entry != nil {
				sameAsFresh[PlanSig](t, recordedWrite{w.path + " (plan)", rec.Entry.Plan})
			}
			counts["log"]++
		case strings.HasPrefix(w.path, "sys/repo/MANIFEST"):
			for _, e := range sameAsFresh[manifestFile](t, w).Entries {
				sameAsFresh[PlanSig](t, recordedWrite{w.path + " (plan of " + e.ID + ")", e.Plan})
			}
			counts["manifest"]++
		case strings.HasPrefix(w.path, "sys/locks/"):
			sameAsFresh[leaseRecord](t, w)
			counts["lease"]++
		}
	}
	if counts["log"] < len(entries)+3 || counts["manifest"] != 1 || counts["lease"] < 2 {
		t.Fatalf("files checked: %v", counts)
	}
}
