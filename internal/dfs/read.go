package dfs

import (
	"bytes"
	"io"
	"strings"
	"unsafe"
)

// reader is what both backends' Open return: a bytes.Reader (so Len
// reports the file's size to a wrapper that meters reads) over contents
// nobody writes again. FS hands out the committed bytes themselves
// (shared), Disk the buffer its Open just read; ReadString turns either
// into a string without copying it.
type reader struct {
	bytes.Reader
	data   []byte
	shared bool
}

func newReader(data []byte, shared bool) *reader {
	r := &reader{data: data, shared: shared}
	r.Reset(data)
	return r
}

// ReadString returns the contents of the file at path as a string. It
// reads through b.Open, so a wrapping backend meters the read as it
// meters any Open. The reader either built-in backend returns becomes
// the string without a copy: the string shares the file's bytes, which
// stay valid after the path is overwritten, deleted or renamed, since a
// commit replaces a file's contents and never writes into them. Any
// other reader is read into one string.
//
// shared reports that the string is the backend's own committed
// contents, which it holds in memory while the file is committed (FS),
// so keeping the string costs no memory of its own. Otherwise the
// string is memory the read allocated (Disk, any other reader), and
// whatever keeps it keeps all of it.
func ReadString(b Backend, path string) (s string, shared bool, err error) {
	r, err := b.Open(path)
	if err != nil {
		return "", false, err
	}
	if fr, ok := r.(*reader); ok {
		// The one conversion of a []byte to a string without a copy in
		// this package. It is sound because nothing writes fr.data:
		// FS's committed contents are immutable, and Disk's buffer
		// belongs to this reader alone.
		return unsafe.String(unsafe.SliceData(fr.data), len(fr.data)), fr.shared, nil
	}
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", false, &PathError{Op: "read", Path: path, Err: err}
	}
	return sb.String(), false, nil
}
