package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Media types of the v1 protocol.
const (
	MediaTypeJSON   = "application/json"
	MediaTypeNDJSON = "application/x-ndjson"
)

// ---------------------------------------------------------------------------
// The codec: json.Encoder/Decoder over sync.Pool-ed buffers. Encoding
// streams into a recycled buffer instead of allocating a fresh document
// slice per response; decoding streams off the body without a ReadAll
// copy. The paper measures JSON handling at ~60% of request time (§IV-A);
// the server books the time spent here into the jsonNanos metric.
// ---------------------------------------------------------------------------

// maxPooledBuffer bounds what goes back in the pool so one huge state
// response doesn't pin memory forever.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// GetBuffer fetches a recycled buffer. Callers must PutBuffer it back.
func GetBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

// PutBuffer recycles a buffer obtained from GetBuffer.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}

type pooledCodec struct{}

// PooledCodec serializes every protocol document the server reads or
// writes, whatever media-type parameters the client sent.
var PooledCodec pooledCodec

// Encode writes v to w as one JSON document.
func (pooledCodec) Encode(w io.Writer, v any) error {
	if buf, ok := w.(*bytes.Buffer); ok {
		// Already buffered (the server's response path): stream straight in.
		return json.NewEncoder(buf).Encode(v)
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// Decode reads exactly one JSON document from r into v.
func (pooledCodec) Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A body is one document: anything but whitespace after it is an
	// error, as it would be for json.Unmarshal.
	if t, err := dec.Token(); err != io.EOF {
		if err != nil {
			return err
		}
		return fmt.Errorf("unexpected data after JSON document: %v", t)
	}
	return nil
}
