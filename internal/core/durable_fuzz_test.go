package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/dfs"
)

// FuzzJournalReplay overwrites one slot of a durable log — a record of
// its tail, or its MANIFEST — with arbitrary bytes, as a torn write or
// a corrupted store leaves it, then opens and refreshes a log over it.
// Neither may panic. A record slot that does not decode is a torn
// record: replay counts it and runs on to the head of the log. A
// manifest that does not decode is an error.
func FuzzJournalReplay(f *testing.F) {
	const root = "sys/repo"
	seed := dfs.New()
	dl, repo := openDurable(f, seed, root)
	for i, src := range indexCorpus[:4] {
		repo.Insert(durableEntry(f, seed, src, i))
	}
	if err := dl.Compact(); err != nil {
		f.Fatal(err)
	}
	for i, src := range indexCorpus[4:] {
		repo.Insert(durableEntry(f, seed, src, 4+i))
	}
	repo.Remove(repo.Entries()[0].ID)
	fresh, _ := openDurable(f, seed, root)
	last := fresh.Stats().AppliedSeq // the head of the log

	files := map[string][]byte{}
	for _, p := range seed.List("") {
		files[p], _ = seed.ReadFile(p)
	}
	manifest := root + "/MANIFEST"
	slots := append([]string{manifest}, seed.Datasets(root+"/log")...)
	for i, p := range slots {
		f.Add(uint8(i), files[p])
		f.Add(uint8(i), files[p][:len(files[p])/2])
	}
	f.Add(uint8(0), []byte("garbage"))
	f.Add(uint8(1), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fs := dfs.New()
		for p, b := range files {
			fs.WriteFile(p, b)
		}
		slot := slots[int(which)%len(slots)]
		fs.WriteFile(slot, data)
		dl, _, err := OpenDurableLog(fs, DurableConfig{Root: root, Writer: "wfuzz", CompactEvery: -1})
		if slot == manifest {
			var m manifestFile
			bad := gob.NewDecoder(bytes.NewReader(data)).Decode(&m) != nil || m.Format != manifestFormat
			if bad != (err != nil) {
				t.Fatalf("manifest undecodable=%v, OpenDurableLog error %v", bad, err)
			}
			if err != nil {
				return
			}
		} else {
			if err != nil {
				t.Fatalf("a garbage record slot failed the open: %v", err)
			}
			var rec logRecord
			if gob.NewDecoder(bytes.NewReader(data)).Decode(&rec) != nil {
				if st := dl.Stats(); st.TornRecords != 1 || st.AppliedSeq != last {
					t.Fatalf("torn slot: %d torn records counted, replay reached seq %d; want 1 and %d",
						st.TornRecords, st.AppliedSeq, last)
				}
			}
		}
		dl.Refresh()
	})
}
