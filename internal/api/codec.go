package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"riscvsim/internal/jsonenc"
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
//
// This is the repository's one compressor, and its level is a measurement,
// not a setting (docs/performance.md, "The step reply path"): on a 24–26 KB
// step reply the default level spends 214–240 µs to send 3.1–3.9 KB,
// BestSpeed 59–61 µs to send 3.5–4.3 KB, so BestSpeed answers sooner on
// any link faster than about 22 Mbit/s and still removes 83–85 % of the
// bytes. The wire contract leaves the level unspecified.
var (
	gzipWriters = sync.Pool{New: func() any {
		gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // the level is valid
		return gz
	}}
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
	if buf, ok := w.(*bytes.Buffer); ok && buf.Available() > 0 {
		// Buffered, with room (the server's response path, whose buffer
		// comes from this pool): stream straight in.
		return encodeInto(buf, v)
	}
	// Any other writer — and a buffer with no room, which the encoder's
	// appends would grow a step at a time, allocating the document several
	// times over — gets it in one Write from a pooled buffer that has held
	// a document this size before.
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := encodeInto(buf, v); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// encodeInto appends v to buf as one line: a reply with an encoder of its
// own (encode.go) writes itself into the buffer's spare room, anything else
// is encoded by reflection. A failed encode leaves buf as it was.
func encodeInto(buf *bytes.Buffer, v any) error {
	a, ok := v.(appender)
	if !ok {
		return json.NewEncoder(buf).Encode(v)
	}
	doc, err := a.AppendJSON(buf.AvailableBuffer())
	if err != nil {
		return err
	}
	buf.Write(append(doc, '\n'))
	return nil
}

// Unmarshal decodes the JSON document data into v, a pointer to a zero
// value, with the result and the error json.Unmarshal gives. Everything v
// gets is copied, so data may be a pooled buffer.
func (pooledCodec) Unmarshal(data []byte, v any) error { return decodeInto(data, v) }

// decodeInto reads data into v: a reply with a decoder of its own
// (encode.go) reads itself, anything else — and any document the own
// decoder does not fully understand, after v is zeroed again — is decoded
// by reflection.
func decodeInto(data []byte, v any) error {
	if d, ok := v.(decoder); ok && !reflect.ValueOf(v).IsNil() {
		if decodeOwn(data, d) {
			return nil
		}
		reflect.ValueOf(v).Elem().SetZero()
	}
	return json.Unmarshal(data, v)
}

// decodeOwn zeroes d and reads data into it with d's own decoder; false
// means the decoder did not fully understand the document.
func decodeOwn(data []byte, d decoder) bool {
	reflect.ValueOf(d).Elem().SetZero()
	r := jsonenc.NewReader(data)
	d.decodeJSON(&r)
	return r.End()
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
