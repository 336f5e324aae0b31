package api

import (
	"bytes"
	"compress/gzip"
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
// the server books the time spent here into its decode and encode phases
// (the jsonNanos metric).
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

// The gzip pools serve every package that compresses or inflates protocol
// bodies (server, client, router): a fresh compressor costs about 1 MB of
// deflate state and a fresh decompressor about 40 KB, against session
// bodies of a few hundred bytes.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// GetGzipWriter fetches a recycled compressor writing to w. Callers
// PutGzipWriter it back, which finishes the stream.
func GetGzipWriter(w io.Writer) *gzip.Writer {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// PutGzipWriter closes a compressor obtained from GetGzipWriter — writing
// out what it still buffers and the gzip trailer — and recycles it.
func PutGzipWriter(gz *gzip.Writer) error {
	err := gz.Close()
	gzipWriters.Put(gz)
	return err
}

// GetGzipReader fetches a recycled decompressor reading r; it fails when
// r does not open with a gzip header. Reset returns the reader to its
// initial state, so nothing of an earlier document (or of one that failed
// half-way) reaches the next. Callers PutGzipReader it back.
func GetGzipReader(r io.Reader) (*gzip.Reader, error) {
	gr := gzipReaders.Get().(*gzip.Reader)
	if err := gr.Reset(r); err != nil {
		gzipReaders.Put(gr)
		return nil, err
	}
	return gr, nil
}

// PutGzipReader recycles a decompressor obtained from GetGzipReader.
func PutGzipReader(gr *gzip.Reader) { gzipReaders.Put(gr) }

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
