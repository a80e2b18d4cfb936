package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func openDiskT(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", dir, err)
	}
	return d
}

// TestDiskReopenRecoversState: close and reopen the directory; every
// file, size, dataset listing and version — including the tombstone of
// a deleted dataset — survives, rebuilt from the object tree and the
// record log.
func TestDiskReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	if err := d.WriteFile("restore/q1/op2/part-00000", []byte("part-data")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("sys/repo/MANIFEST", []byte("manifest")); err != nil {
		t.Fatal(err)
	}
	d.WriteFile("sys/repo/MANIFEST", []byte("manifest-v2"))
	if err := d.WriteFile("sys/repo/log/r1", []byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("sys/repo/log/r1"); err != nil {
		t.Fatal(err)
	}
	vPart := d.Version("restore/q1/op2")
	vMan := d.Version("sys/repo/MANIFEST")
	vTomb := d.Version("sys/repo/log/r1")
	if vTomb == 0 {
		t.Fatal("deleted dataset carries no tombstone version")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDiskT(t, dir)
	defer r.Close()
	if got, _ := r.ReadFile("restore/q1/op2/part-00000"); string(got) != "part-data" {
		t.Fatalf("object file after reopen = %q", got)
	}
	if got, _ := r.ReadFile("sys/repo/MANIFEST"); string(got) != "manifest-v2" {
		t.Fatalf("inline file after reopen = %q (last write must win)", got)
	}
	if r.Exists("sys/repo/log/r1") {
		t.Error("deleted file resurrected by reopen")
	}
	for ds, want := range map[string]int64{
		"restore/q1/op2":    vPart,
		"sys/repo/MANIFEST": vMan,
		"sys/repo/log/r1":   vTomb,
	} {
		if got := r.Version(ds); got != want {
			t.Errorf("Version(%s) after reopen = %d, want %d", ds, got, want)
		}
	}
	if got := r.Size("restore/q1/op2"); got != int64(len("part-data")) {
		t.Errorf("Size after reopen = %d", got)
	}
	if dss := r.Datasets("sys"); len(dss) != 1 || dss[0] != "sys/repo/MANIFEST" {
		t.Errorf("Datasets(sys) after reopen = %v", dss)
	}
}

// TestDiskTornLogTailTruncated: garbage appended to the record log — a
// crash mid-append — is truncated on the next open; every record before
// the tear survives and the log accepts new writes.
func TestDiskTornLogTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	if err := d.WriteFile("sys/a", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a length prefix promising more bytes than exist.
	f, err := os.OpenFile(filepath.Join(dir, "dfs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 'g', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openDiskT(t, dir)
	defer r.Close()
	if got, _ := r.ReadFile("sys/a"); string(got) != "intact" {
		t.Fatalf("pre-tear record lost: %q", got)
	}
	if err := r.WriteFile("sys/b", []byte("after")); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openDiskT(t, dir)
	defer r2.Close()
	if got, _ := r2.ReadFile("sys/b"); string(got) != "after" {
		t.Fatalf("post-recovery write lost: %q", got)
	}
}

// TestDiskGarbageLengthPrefix: a length prefix promising far more bytes
// than the log holds is a torn tail, found without allocating what it
// promises.
func TestDiskGarbageLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	if err := d.WriteFile("sys/a", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "dfs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x3f, 'g', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := openDiskT(t, dir)
	runtime.ReadMemStats(&after)
	defer r.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("opening a log with a 1 GiB length prefix allocated %d bytes", n)
	}
	if got, _ := r.ReadFile("sys/a"); string(got) != "intact" {
		t.Fatalf("record before the garbage lost: %q", got)
	}
}

// TestDiskRecompactShrinksLogAndKeepsState: churning one inline file
// accumulates dead records; Recompact rewrites the log to live state
// only — and the rewritten log still carries the deleted datasets'
// tombstone versions through a reopen.
func TestDiskRecompactShrinksLogAndKeepsState(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	for i := 0; i < 100; i++ {
		if err := d.WriteFile("sys/counter", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteFile("sys/gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("sys/gone"); err != nil {
		t.Fatal(err)
	}
	vCounter, vTomb := d.Version("sys/counter"), d.Version("sys/gone")
	before, err := os.Stat(filepath.Join(dir, "dfs.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Recompact(); err != nil {
		t.Fatalf("Recompact: %v", err)
	}
	after, err := os.Stat(filepath.Join(dir, "dfs.log"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("recompaction grew the log: %d -> %d bytes", before.Size(), after.Size())
	}
	if got, _ := d.ReadFile("sys/counter"); string(got) != "99" {
		t.Fatalf("recompacted content = %q", got)
	}
	// The recompacted log remains appendable and reopenable.
	if err := d.WriteFile("sys/counter", []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDiskT(t, dir)
	defer r.Close()
	if got, _ := r.ReadFile("sys/counter"); string(got) != "100" {
		t.Fatalf("post-recompact append lost across reopen: %q", got)
	}
	if got := r.Version("sys/counter"); got <= vCounter {
		t.Errorf("counter version regressed: %d after reopen, %d before recompact", got, vCounter)
	}
	if got := r.Version("sys/gone"); got != vTomb {
		t.Errorf("tombstone version = %d after recompact+reopen, want %d", got, vTomb)
	}
}

// TestDiskAutoRecompaction: enough churn trips the automatic rewrite
// without an explicit Recompact call.
func TestDiskAutoRecompaction(t *testing.T) {
	d := openDiskT(t, t.TempDir())
	defer d.Close()
	for i := 0; i < 3*recompactMinRecords; i++ {
		if err := d.WriteFile("sys/churn", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if d.Recompactions() == 0 {
		t.Fatal("churn past the threshold never triggered recompaction")
	}
	if got, _ := d.ReadFile("sys/churn"); string(got) != "v" {
		t.Fatalf("content after auto-recompaction = %q", got)
	}
}

// TestDiskDirectoryLock: a directory held by a live Disk cannot be
// opened again; Close releases it.
func TestDiskDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	if _, err := OpenDisk(dir); err == nil {
		t.Fatal("second OpenDisk on a held directory succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDiskT(t, dir)
	r.Close()
}

// TestDiskStaleFencesCleared: fence files a crashed predecessor left
// behind must not block the new owner's CAS transitions — they are
// discarded at open (a fence without a logged commit was never
// acknowledged).
func TestDiskStaleFencesCleared(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir)
	if _, ok := d.WriteFileIf("sys/lease", []byte("one"), 0); !ok {
		t.Fatal("setup CAS failed")
	}
	v := d.Version("sys/lease")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed process's leftover fence for the next transition.
	stale := filepath.Join(dir, "fences", fenceName("sys/lease", v))
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openDiskT(t, dir)
	defer r.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale fence survived open")
	}
	if _, ok := r.WriteFileIf("sys/lease", []byte("two"), v); !ok {
		t.Fatal("CAS blocked by a dead process's fence")
	}
}

// TestDiskCASSingleWinner: concurrent writers racing one version
// transition resolve to exactly one winner.
func TestDiskCASSingleWinner(t *testing.T) {
	d := openDiskT(t, t.TempDir())
	defer d.Close()
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := d.WriteFileIf("sys/slot", []byte(fmt.Sprintf("w%d", i)), 0); ok {
				wins <- i
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d writers won one version transition: %v", len(winners), winners)
	}
	got, _ := d.ReadFile("sys/slot")
	if string(got) != fmt.Sprintf("w%d", winners[0]) {
		t.Fatalf("content %q is not the winner's (w%d)", got, winners[0])
	}
}

// FuzzDiskLoadLog opens a directory whose record log holds arbitrary
// bytes, as a torn write or a corrupted disk leaves it. OpenDisk must
// fail or open an index whose every listed file reads back; it must not
// panic.
func FuzzDiskLoadLog(f *testing.F) {
	dir := f.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		f.Fatal(err)
	}
	d.WriteFile("sys/repo/MANIFEST", []byte("manifest"))
	d.WriteFile("sys/repo/log/r1", []byte("record"))
	v := d.Version("locks/l")
	d.WriteFileIf("locks/l", []byte("lease"), v)
	d.RemoveFileIf("locks/l", v+1)
	d.Delete("sys/repo/log/r1")
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "dfs.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(diskLogMagic)+4])
	f.Add(log[:len(log)-3])
	f.Add([]byte("garbage"))
	// A length prefix of almost 1 GiB over a 3-byte tail.
	f.Add(append(log[:len(diskLogMagic)+4:len(diskLogMagic)+4], 0xff, 0xff, 0xff, 0x3f, 'g', 'a', 'r'))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "dfs.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir)
		if err != nil {
			return
		}
		defer d.Close()
		for _, p := range d.List("") {
			if _, err := d.ReadFile(p); err != nil {
				t.Fatalf("listed file %q does not read: %v", p, err)
			}
		}
		d.Datasets("")
	})
}
