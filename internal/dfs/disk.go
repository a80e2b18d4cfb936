package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// Disk is the on-disk Backend: the shared index, persisted under one
// host directory so the repository, event log and leases survive
// process restarts. Every mutation is written through to disk first and
// applied to the index after. The layout splits files by shape:
//
//   - Part files (paths whose last component is "part-*", i.e. dataset
//     members) live as real files under "<dir>/objects/<path>" — a
//     dir-of-files store, written temp-then-rename so a reader never
//     sees a half-written part.
//
//   - Standalone files (log records, MANIFEST, lease records, counters
//     — every path that is its own dataset) live as records in a
//     single compact binary log, "<dir>/dfs.log": a fixed header, then
//     length-prefixed checksummed records. The in-memory index over it
//     is rebuilt on load (a torn tail is truncated, not an error), and
//     the log is recompacted — rewritten with only live records — when
//     the dead-record ratio crosses a threshold. Dataset versions are
//     persisted through the same records, which preserves the
//     delete-bumps-version tombstone the durable log's trimmed-slot
//     detection depends on.
//
// Version CAS holds on real disk through O_EXCL fencing: a successful
// WriteFileIf/RemoveFileIf first creates "<dir>/fences/<ds>@<from>"
// with O_CREATE|O_EXCL, so of two processes racing one version
// transition exactly one can win it, then commits (record append or
// object rename) and removes the fence. A process opening the
// directory additionally takes a flock on "<dir>/LOCK", so live
// ownership is exclusive: concurrent mutators share one *Disk (as the
// multi-System tests share one *FS), while the fence files keep the
// CAS honest across the crash/restart windows where a predecessor's
// fence may still be on disk.
//
// All methods are safe for concurrent use.
type Disk struct {
	dir  string
	lock *os.File

	index

	log      *os.File
	logRecs  int             // records in dfs.log
	liveKeys map[string]bool // distinct live record keys (last write wins)
	syncLog  bool

	recompacts atomic.Int64
}

// Record log format constants.
const (
	diskLogMagic  = "RSTRDFSL"
	diskLogFormat = 1

	opFilePut    = 'F' // inline content (+ version when Ver > 0)
	opFileDel    = 'D' // inline delete (+ version when Ver > 0)
	opVersionSet = 'V' // dataset version set

	// recompactMinRecords is the log size below which recompaction is
	// never triggered automatically; past it, the log is rewritten as
	// soon as dead records outnumber live ones.
	recompactMinRecords = 512

	// maxRecordLen bounds a single record; longer means corruption.
	maxRecordLen = 1 << 30
)

// OpenDisk opens (or initializes) the on-disk backend rooted at dir,
// rebuilding the in-memory index from the object tree and the record
// log. It takes an exclusive flock on "<dir>/LOCK" and fails if another
// live process holds the directory.
func OpenDisk(dir string) (*Disk, error) {
	d := &Disk{dir: dir, index: newIndex(), liveKeys: make(map[string]bool)}
	for _, sub := range []string{"", "objects", "fences"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("dfs: disk open: %w", err)
		}
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dfs: disk open: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("dfs: disk directory %s is held by a live process: %w", dir, err)
	}
	d.lock = lock
	if err := d.loadObjects(); err != nil {
		lock.Close()
		return nil, err
	}
	if err := d.loadLog(); err != nil {
		lock.Close()
		return nil, err
	}
	// Normalize: a dataset holding files was written at least once.
	for _, ds := range d.Datasets("") {
		if d.version[ds] == 0 {
			d.version[ds] = 1
		}
	}
	// Under the flock there is no live peer: leftover fences belong to
	// a crashed predecessor. A fence without a logged commit is an
	// unacknowledged transition — discard it.
	if ents, err := os.ReadDir(filepath.Join(dir, "fences")); err == nil {
		for _, e := range ents {
			_ = os.Remove(filepath.Join(dir, "fences", e.Name()))
		}
	}
	return d, nil
}

// Close releases the directory: the record log handle and the flock.
// The Disk must not be used afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.log != nil {
		err = d.log.Close()
		d.log = nil
	}
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
	return err
}

// SetSync enables fsync on every record append and object rename;
// without it durability is bounded by the OS page cache (sufficient
// against process crashes, not machine crashes).
func (d *Disk) SetSync(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncLog = on
}

// loadObjects walks objects/ and indexes every part file found there.
func (d *Disk) loadObjects() error {
	root := filepath.Join(d.dir, "objects")
	return filepath.WalkDir(root, func(path string, de iofs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		info, ierr := de.Info()
		if ierr != nil {
			return ierr
		}
		d.insert(filepath.ToSlash(rel), &file{size: info.Size()})
		return nil
	})
}

// loadLog replays dfs.log into the index, truncating a torn tail, and
// leaves the handle open for appends. A missing log is initialized.
func (d *Disk) loadLog() error {
	path := filepath.Join(d.dir, "dfs.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	header := make([]byte, len(diskLogMagic)+4)
	n, err := io.ReadFull(f, header)
	switch {
	case n == 0:
		binary.LittleEndian.PutUint32(header[len(diskLogMagic):], diskLogFormat)
		copy(header, diskLogMagic)
		if _, err := f.Write(header); err != nil {
			f.Close()
			return fmt.Errorf("dfs: disk log: %w", err)
		}
	case err != nil:
		// A header torn mid-write: the log never held a record.
		if terr := f.Truncate(0); terr != nil {
			f.Close()
			return fmt.Errorf("dfs: disk log: %w", terr)
		}
		f.Close()
		return d.loadLog()
	default:
		if string(header[:len(diskLogMagic)]) != diskLogMagic {
			f.Close()
			return fmt.Errorf("dfs: %s is not a dfs record log", path)
		}
		if v := binary.LittleEndian.Uint32(header[len(diskLogMagic):]); v != diskLogFormat {
			f.Close()
			return fmt.Errorf("dfs: unsupported record log format %d", v)
		}
	}
	offset := int64(len(header))
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean end (or torn length prefix)
		}
		recLen := binary.LittleEndian.Uint32(lenBuf[:])
		if recLen == 0 || recLen > maxRecordLen {
			break
		}
		// Read what is there, not what the prefix promises: a garbage
		// length over a short tail must not allocate a gigabyte.
		buf, err := io.ReadAll(io.LimitReader(f, int64(recLen)+4))
		if err != nil || len(buf) != int(recLen)+4 {
			break // torn record
		}
		payload, sum := buf[:recLen], binary.LittleEndian.Uint32(buf[recLen:])
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: everything past it is suspect
		}
		d.applyRecordLocked(payload)
		offset += int64(4 + len(buf))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	d.log = f
	return nil
}

// recordKey is the last-write-wins identity of a record, for dead
// record accounting.
func recordKey(op byte, path string) string {
	if op == opVersionSet {
		return "v\x00" + path
	}
	return "f\x00" + path
}

// applyRecordLocked folds one decoded log record into the index.
func (d *Disk) applyRecordLocked(payload []byte) {
	if len(payload) < 1+4 {
		return
	}
	op := payload[0]
	pathLen := binary.LittleEndian.Uint32(payload[1:5])
	if int(pathLen) > len(payload)-5 {
		return
	}
	path := string(payload[5 : 5+pathLen])
	rest := payload[5+pathLen:]
	if len(rest) < 8 {
		return
	}
	ver := int64(binary.LittleEndian.Uint64(rest[:8]))
	data := rest[8:]
	d.logRecs++
	d.liveKeys[recordKey(op, path)] = true
	switch op {
	case opFilePut:
		d.insert(path, &file{size: int64(len(data)), data: append([]byte(nil), data...)})
		if ver > 0 {
			d.version[datasetOf(path)] = ver
		}
	case opFileDel:
		d.drop(path)
		if ver > 0 {
			d.version[datasetOf(path)] = ver
		}
	case opVersionSet:
		d.version[path] = ver
	}
}

// encodeRecord frames one record: length, payload, crc.
func encodeRecord(op byte, path string, ver int64, data []byte) []byte {
	payload := make([]byte, 0, 1+4+len(path)+8+len(data))
	payload = append(payload, op)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(path)))
	payload = append(payload, path...)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(ver))
	payload = append(payload, data...)
	rec := make([]byte, 0, 4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return rec
}

// appendRecordLocked writes one record to the log in a single write.
// It does not recompact: the caller's in-memory state may not yet
// reflect this record, and recompaction rewrites the log from that
// state — mutators call maybeRecompactLocked once they are consistent.
func (d *Disk) appendRecordLocked(op byte, path string, ver int64, data []byte) error {
	if _, err := d.log.Write(encodeRecord(op, path, ver, data)); err != nil {
		return fmt.Errorf("dfs: disk log append: %w", err)
	}
	if d.syncLog {
		if err := d.log.Sync(); err != nil {
			return fmt.Errorf("dfs: disk log sync: %w", err)
		}
	}
	d.logRecs++
	d.liveKeys[recordKey(op, path)] = true
	return nil
}

// maybeRecompactLocked rewrites the log once it is big enough and dead
// records outnumber live ones. Called at the end of mutations, when
// the in-memory index is consistent with the log.
func (d *Disk) maybeRecompactLocked() {
	if d.logRecs >= recompactMinRecords && d.logRecs-len(d.liveKeys) > len(d.liveKeys) {
		_ = d.recompactLocked()
	}
}

// Recompact rewrites the record log with only live state: one put per
// inline file, one version record per dataset version not carried by a
// put. Tombstone versions of deleted datasets are preserved — the
// durable log's trimmed-slot detection depends on them.
func (d *Disk) Recompact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recompactLocked()
}

// Recompactions returns how many times the record log has been
// rewritten since open.
func (d *Disk) Recompactions() int64 { return d.recompacts.Load() }

func (d *Disk) recompactLocked() error {
	tmpPath := filepath.Join(d.dir, "dfs.log.tmp")
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	header := make([]byte, len(diskLogMagic)+4)
	copy(header, diskLogMagic)
	binary.LittleEndian.PutUint32(header[len(diskLogMagic):], diskLogFormat)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	recs := 0
	keys := make(map[string]bool)
	emit := func(op byte, path string, ver int64, data []byte) error {
		if _, err := f.Write(encodeRecord(op, path, ver, data)); err != nil {
			return err
		}
		recs++
		keys[recordKey(op, path)] = true
		return nil
	}
	inline := make([]string, 0, len(d.files))
	covered := make(map[string]bool)
	for p := range d.files {
		if isInline(p) {
			inline = append(inline, p)
		}
	}
	sort.Strings(inline)
	for _, p := range inline {
		ds := datasetOf(p)
		ver := int64(0)
		if ds == p {
			ver = d.version[p]
			covered[p] = true
		}
		if err := emit(opFilePut, p, ver, d.files[p].data); err != nil {
			f.Close()
			return fmt.Errorf("dfs: recompact: %w", err)
		}
	}
	dss := make([]string, 0, len(d.version))
	for ds := range d.version {
		if !covered[ds] {
			dss = append(dss, ds)
		}
	}
	sort.Strings(dss)
	for _, ds := range dss {
		if err := emit(opVersionSet, ds, d.version[ds], nil); err != nil {
			f.Close()
			return fmt.Errorf("dfs: recompact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(d.dir, "dfs.log")); err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	reopened, err := os.OpenFile(filepath.Join(d.dir, "dfs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if d.log != nil {
		d.log.Close()
	}
	d.log = reopened
	d.logRecs = recs
	d.liveKeys = keys
	d.recompacts.Add(1)
	return nil
}

// isInline reports whether path is stored in the record log rather
// than as an object file: every path that is its own dataset.
func isInline(p string) bool { return datasetOf(p) == p }

// objectPath maps a logical path to its objects/ file.
func (d *Disk) objectPath(p string) string {
	return filepath.Join(d.dir, "objects", filepath.FromSlash(p))
}

// writeObject commits data to objects/<p> via temp-then-rename.
func (d *Disk) writeObject(p string, data []byte) error {
	full := d.objectPath(p)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	tmp := full + ".tmp~"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if d.syncLog {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, full)
}

// removeObject deletes objects/<p> and prunes its parents.
func (d *Disk) removeObject(p string) {
	_ = os.Remove(d.objectPath(p))
	d.pruneObjectDirs(p)
}

// pruneObjectDirs removes the now-empty parent directories of
// objects/<p>, up to the objects root.
func (d *Disk) pruneObjectDirs(p string) {
	root := filepath.Join(d.dir, "objects")
	for dir := filepath.Dir(d.objectPath(p)); dir != root && strings.HasPrefix(dir, root); dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			break // not empty (or gone)
		}
	}
}

// Create opens a new file for writing; Close commits it.
func (d *Disk) Create(path string) io.WriteCloser {
	return &writer{path: clean(path), commit: d.commit}
}

// WriteFile writes data to path in one call.
func (d *Disk) WriteFile(path string, data []byte) error {
	_, err := d.commit(clean(path), append([]byte(nil), data...))
	return err
}

// commit is the file-commit path of Create and WriteFile. It owns data.
func (d *Disk) commit(p string, data []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.storeLocked(p, data)
}

// storeLocked makes one file commit last and then applies it (mu
// held): content goes to the record log or an object by the path's
// class, together with the dataset's next version. It owns data.
func (d *Disk) storeLocked(p string, data []byte) (int64, error) {
	ds := datasetOf(p)
	f := &file{size: int64(len(data))}
	if isInline(p) {
		if err := d.appendRecordLocked(opFilePut, p, d.next(ds), data); err != nil {
			return 0, err
		}
		f.data = data
	} else {
		if err := d.writeObject(p, data); err != nil {
			return 0, err
		}
		if err := d.appendRecordLocked(opVersionSet, ds, d.next(ds), nil); err != nil {
			return 0, err
		}
	}
	ver := d.put(p, f)
	d.maybeRecompactLocked()
	return ver, nil
}

// Open returns a reader over the file at path.
func (d *Disk) Open(path string) (io.Reader, error) {
	data, err := d.read("open", path)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// ReadFile returns the contents of the file at path.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	return d.read("read", path)
}

// read returns a copy of the file at path. Only a path the index does
// not hold is ErrNotExist; an indexed object that cannot be read
// reports what the operating system said.
func (d *Disk) read(op, path string) ([]byte, error) {
	p := clean(path)
	d.mu.RLock()
	f, ok := d.files[p]
	var data []byte
	err := ErrNotExist
	if ok {
		data, err = d.contentLocked(p, f)
	}
	d.mu.RUnlock()
	if err != nil {
		return nil, &PathError{Op: op, Path: path, Err: err}
	}
	d.bytesRead.Add(int64(len(data)))
	return data, nil
}

// contentLocked returns a private copy of the content of the live file
// f at p (mu held, shared or exclusive).
func (d *Disk) contentLocked(p string, f *file) ([]byte, error) {
	if isInline(p) {
		return append([]byte(nil), f.data...), nil
	}
	return os.ReadFile(d.objectPath(p))
}

// Delete removes the file or directory tree at path, bumping — and
// logging — the version of every dataset that loses a file.
func (d *Disk) Delete(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, err := d.planDelete(path)
	if err != nil {
		return err
	}
	return d.persistAndApplyLocked(c)
}

// Rename atomically moves the file or tree at oldPath to newPath,
// replacing the destination; see (*FS).Rename for the contract.
func (d *Disk) Rename(oldPath, newPath string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, err := d.planRename(oldPath, newPath)
	if err != nil {
		return 0, err
	}
	if err := d.persistAndApplyLocked(c); err != nil {
		return 0, err
	}
	return d.version[datasetOf(newPath)], nil
}

// persistAndApplyLocked writes c through to disk in plan order —
// removals, moves, then one version record per touched dataset — and
// applies it to the index (mu held). If a step fails, the steps that
// did reach the disk are still applied, so the index never disagrees
// with what a reopen would rebuild.
func (d *Disk) persistAndApplyLocked(c change) error {
	err := d.persistLocked(&c)
	d.apply(c)
	d.maybeRecompactLocked()
	return err
}

// persistLocked is the disk half of persistAndApplyLocked. On failure
// it cuts c back to the steps that were persisted.
func (d *Disk) persistLocked(c *change) error {
	for i, name := range c.removed {
		if isInline(name) {
			if err := d.appendRecordLocked(opFileDel, name, 0, nil); err != nil {
				*c = change{removed: c.removed[:i]}
				return err
			}
		} else {
			d.removeObject(name)
		}
	}
	for i := range c.moved {
		if err := d.persistMoveLocked(&c.moved[i]); err != nil {
			c.moved, c.touched = c.moved[:i], nil
			return err
		}
	}
	for i, ds := range c.touched {
		if err := d.appendRecordLocked(opVersionSet, ds, d.next(ds), nil); err != nil {
			c.touched = c.touched[:i]
			return err
		}
	}
	return nil
}

// persistMoveLocked moves one file's content on disk. An object moving
// to an object path is renamed; anything else crosses storage classes
// (or is replayed into the log) by value, and mv.f becomes the file
// describing the content's new home.
func (d *Disk) persistMoveLocked(mv *move) error {
	srcInline, dstInline := isInline(mv.src), isInline(mv.dst)
	if !srcInline && !dstInline {
		full := d.objectPath(mv.dst)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.Rename(d.objectPath(mv.src), full); err != nil {
			return err
		}
		d.pruneObjectDirs(mv.src)
		return nil
	}
	data, err := d.contentLocked(mv.src, mv.f)
	if err != nil {
		return err
	}
	if srcInline {
		if err := d.appendRecordLocked(opFileDel, mv.src, 0, nil); err != nil {
			return err
		}
	} else {
		d.removeObject(mv.src)
	}
	mv.f = &file{size: int64(len(data))}
	if !dstInline {
		return d.writeObject(mv.dst, data)
	}
	mv.f.data = data
	return d.appendRecordLocked(opFilePut, mv.dst, 0, data)
}

// fenceName maps a dataset + from-version to its fence file.
func fenceName(ds string, from int64) string {
	enc := strings.NewReplacer("%", "%25", "/", "%2F").Replace(ds)
	return enc + "@" + strconv.FormatInt(from, 10)
}

// takeFence claims the O_EXCL fence for one version transition. The
// returned release removes the fence after the commit is logged.
func (d *Disk) takeFence(ds string, from int64) (release func(), ok bool) {
	path := filepath.Join(d.dir, "fences", fenceName(ds, from))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false // a peer holds (or held) this transition
	}
	f.Close()
	return func() { os.Remove(path) }, true
}

// WriteFileIf writes data to path only if path's dataset version still
// equals expect; see (*FS).WriteFileIf for the contract. On disk the
// transition is additionally fenced through an O_EXCL create, so two
// processes racing one version transition resolve to one winner.
func (d *Disk) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if d.version[ds] != expect {
		return d.version[ds], false
	}
	release, ok := d.takeFence(ds, expect)
	if !ok {
		return d.version[ds], false
	}
	defer release()
	if _, err := d.storeLocked(p, append([]byte(nil), data...)); err != nil {
		return d.version[ds], false
	}
	return d.version[ds], true
}

// RemoveFileIf deletes the file at path only if its dataset version
// still equals expect; the transition is fenced like WriteFileIf's.
func (d *Disk) RemoveFileIf(path string, expect int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.planRemoveIf(path, expect)
	if !ok {
		return false
	}
	release, ok := d.takeFence(datasetOf(path), expect)
	if !ok {
		return false
	}
	defer release()
	return d.persistAndApplyLocked(c) == nil
}
