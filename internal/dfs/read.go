package dfs

import (
	"bytes"
	"io"
	"strings"
	"unsafe"
)

// reader is what both backends' Open return: a bytes.Reader (so Len
// reports the file's size to a wrapper that meters reads) over contents
// nobody writes again. FS hands out the committed bytes themselves,
// Disk the buffer its Open just read; ReadString turns either into a
// string without copying it.
type reader struct {
	bytes.Reader
	data []byte
}

func newReader(data []byte) *reader {
	r := &reader{data: data}
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
func ReadString(b Backend, path string) (string, error) {
	r, err := b.Open(path)
	if err != nil {
		return "", err
	}
	if fr, ok := r.(*reader); ok {
		// The one conversion of a []byte to a string without a copy in
		// this package. It is sound because nothing writes fr.data:
		// FS's committed contents are immutable, and Disk's buffer
		// belongs to this reader alone.
		return unsafe.String(unsafe.SliceData(fr.data), len(fr.data)), nil
	}
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", &PathError{Op: "read", Path: path, Err: err}
	}
	return sb.String(), nil
}
