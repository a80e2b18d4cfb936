package core

import (
	"bytes"
	"encoding/gob"
	"sync"
)

// gobStream encodes values of one record type as self-contained gob
// streams, each byte for byte what gob.NewEncoder(w).Encode(v) writes,
// without deriving T's type descriptors again for every value.
//
// A gob stream is a sequence of self-delimited messages: an Encoder
// writes the descriptors of a type the first time it meets the type,
// then one value message per Encode. Type ids are assigned once per
// process, so the value message a long-lived Encoder writes for v is
// the one a fresh Encoder writes after its descriptors. A gobStream
// keeps one primed Encoder and the descriptor bytes it wrote first,
// and returns those bytes followed by the value message. That holds
// only while the descriptors do not depend on the value: T must have
// no interface-typed field, which none of the journal, manifest, plan
// and lease record types has. Decoders are plain gob.Decoders.
//
// The zero gobStream is ready to use and safe for concurrent use.
type gobStream[T any] struct {
	mu     sync.Mutex
	enc    *gob.Encoder // nil until primed, after an error and after a large value
	out    streamBuf    // enc's writer: the stream being built
	prefix []byte       // T's type descriptors, as a fresh Encoder writes them
	last   int          // the last value message's length, to size the next stream
}

// maxPrimedMessage bounds the value messages a primed Encoder keeps
// serving: an Encoder holds on to a buffer as large as the largest
// message it wrote, so after a larger one (a manifest) the stream drops
// it and primes a new one for the next value.
const maxPrimedMessage = 64 << 10

// streamBuf collects what an Encoder writes; gob writes each message in
// one Write.
type streamBuf struct{ b []byte }

func (w *streamBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// encode returns the gob stream of *v in a new slice.
func (s *gobStream[T]) encode(v *T) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		if err := s.prime(); err != nil {
			return nil, err
		}
	}
	s.out.b = append(make([]byte, 0, len(s.prefix)+s.last), s.prefix...)
	err := s.enc.Encode(v)
	stream := s.out.b
	s.out.b = nil
	if err != nil {
		// An Encoder keeps its first error; prime a new one next time.
		s.enc = nil
		return nil, err
	}
	if s.last = len(stream) - len(s.prefix); s.last > maxPrimedMessage {
		s.enc, s.last = nil, 0
	}
	return stream, nil
}

// prime starts a new Encoder and records T's descriptors: a first
// Encode of the zero value writes descriptors and a value message, a
// second one only the value message, so the difference is the
// descriptors (s.mu held).
func (s *gobStream[T]) prime() error {
	var zero T
	s.out.b = nil
	defer func() { s.out.b = nil }()
	enc := gob.NewEncoder(&s.out)
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	first := len(s.out.b)
	if err := enc.Encode(&zero); err != nil {
		return err
	}
	value := len(s.out.b) - first
	s.prefix = bytes.Clone(s.out.b[:first-value])
	s.enc = enc
	return nil
}
