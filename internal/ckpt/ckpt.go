// Package ckpt implements the simulator's versioned binary checkpoint
// wire format: the primitives every stateful package uses to serialize
// itself (varint integers, length-prefixed byte strings, typed values),
// the stream's frame (magic and format version in front, footer and
// CRC-32C trailer behind, checked by Open before any decoder runs) and
// the stable sentinel errors the API layer maps onto machine-readable
// error codes.
//
// The format is strictly deterministic: encoding the same machine state
// twice produces byte-identical output (maps are encoded in sorted order
// by their owners), which is what makes golden-file tests and
// checkpoint-hash determinism checks possible. docs/checkpoint.md
// documents the layout.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
)

// Magic identifies a checkpoint stream ("RISC-V Simulator Checkpoint").
const Magic = "RVSC"

// Version is the format version. Decoders accept this version only: a
// reader of an older one would skip its CRC, so one flipped version byte
// would defeat the check.
const Version = 2

// FooterMagic ends the body of a checkpoint, just before the trailer, so
// tail truncation is told apart from corruption.
const FooterMagic uint32 = 0x4B435652 // "RVCK" little-endian

// TrailerLen is the size of the trailer: the CRC-32C (Castagnoli) of
// every byte before it, little-endian. It is the format's one integrity
// check.
const TrailerLen = 4

// MaxStreamLen bounds the bytes a checkpoint reader takes from a stream.
const MaxStreamLen = 1 << 28 // 256 MiB

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	footer     = binary.AppendUvarint(nil, uint64(FooterMagic))
)

// Sentinel errors, mapped onto stable API error codes by internal/api.
var (
	// ErrBadMagic: the stream does not start with Magic.
	ErrBadMagic = errors.New("ckpt: not a checkpoint stream (bad magic)")
	// ErrVersion: the stream's format version is not Version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint format version")
	// ErrTruncated: the stream does not end in the footer and trailer.
	ErrTruncated = errors.New("ckpt: truncated checkpoint stream")
	// ErrCorrupt: the stream fails its CRC, or a section tag, length,
	// index or cross-reference inside it is invalid.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint stream")
)

// Section tags give every block of the stream a one-byte self-describing
// marker, so decoding failures carry context and layout drift is caught
// immediately rather than as garbage state. The stream's header is
// untagged, so no section is 0x01.
const (
	SecCore      byte = 0x02
	SecInstrs    byte = 0x03
	SecROB       byte = 0x04
	SecWindows   byte = 0x05
	SecFUs       byte = 0x06
	SecLSU       byte = 0x07
	SecFetch     byte = 0x08
	SecRename    byte = 0x09
	SecPredictor byte = 0x0A
	SecCache     byte = 0x0B
	SecMemory    byte = 0x0C
	SecLog       byte = 0x0D
	SecDebug     byte = 0x0E
)

// MaxSliceLen bounds every length prefix a decoder accepts, so a corrupt
// stream cannot drive an allocation of arbitrary size.
const MaxSliceLen = 1 << 26 // 64 Mi elements

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// Writer serializes checkpoint primitives. Errors are sticky: the first
// write failure latches and every later call is a no-op, so encoders can
// run straight through and check Err once.
type Writer struct {
	w       io.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// NewWriter wraps w. The caller owns buffering (sim wraps files in a
// bufio.Writer; hashing writers need no buffer).
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Failf latches an encoding-invariant violation (e.g. a structure
// referencing an instruction missing from the live table). Subsequent
// writes become no-ops and the checkpoint fails loudly instead of
// encoding silently-wrong state.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Raw writes b without a length prefix.
func (w *Writer) Raw(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) {
	w.scratch[0] = b
	w.Raw(w.scratch[:1])
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.Raw(w.scratch[:n])
}

// I64 writes a signed varint (zigzag).
func (w *Writer) I64(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.Raw(w.scratch[:n])
}

// Int writes a signed int.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Len writes a count prefix (unsigned varint, read back with Reader.Len).
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.Raw(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

// Section writes a section tag.
func (w *Writer) Section(tag byte) { w.Byte(tag) }

// Header writes the front of a checkpoint stream: Magic and Version.
func (w *Writer) Header() {
	w.Raw([]byte(Magic))
	w.U64(Version)
}

// Footer writes the footer that ends a checkpoint's body. The trailer
// follows it (Summer.WriteTrailer).
func (w *Writer) Footer() { w.Raw(footer) }

// Summer passes writes through to an io.Writer and keeps the CRC-32C of
// every byte it passed. A checkpoint writer puts one under its buffering,
// so the trailer costs no second pass over the stream.
type Summer struct {
	w   io.Writer
	crc uint32
	buf [TrailerLen]byte
}

// NewSummer wraps w.
func NewSummer(w io.Writer) *Summer { return &Summer{w: w} }

// Write implements io.Writer.
func (s *Summer) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.crc = crc32.Update(s.crc, castagnoli, p[:n])
	return n, err
}

// WriteTrailer writes the trailer: the CRC-32C of everything written
// through s so far.
func (s *Summer) WriteTrailer() error {
	_, err := s.w.Write(binary.LittleEndian.AppendUint32(s.buf[:0], s.crc))
	return err
}

// Value writes a typed expression value (type tag + raw bits).
func (w *Writer) Value(v expr.Value) {
	w.Byte(byte(v.Type()))
	w.U64(v.Bits())
}

// Exception writes an optional fault (presence flag + fields).
func (w *Writer) Exception(e *fault.Exception) {
	if e == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Int(int(e.Kind))
	w.String(e.Msg)
	w.U64(e.Cycle)
	w.Int(e.PC)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

// Reader decodes checkpoint primitives. Errors are sticky and every
// accessor returns a zero value after a failure, so decoders can run
// straight through and check Err once; any short read surfaces as
// ErrTruncated, any malformed length, tag or encoding as ErrCorrupt.
// Booleans and varints must be in the form the Writer writes, so a stream
// that decodes re-encodes to the same bytes.
type Reader struct {
	r   byteReader
	err error
	// framed: r is a body Open verified, so running out of it is a
	// length inside the body that lies, not a short stream.
	framed bool
}

type byteReader interface {
	io.Reader
	io.ByteReader
	Len() int // unread bytes
}

// NewReader wraps an in-memory stream (a *bytes.Reader or *bytes.Buffer).
func NewReader(r byteReader) *Reader { return &Reader{r: r} }

// Open checks a whole checkpoint stream in the format's read order and
// returns a Reader over its body, positioned after the version and ending
// before the footer. A wrong magic fails as ErrBadMagic, a version other
// than Version as ErrVersion, a stream that does not end in the footer and
// trailer as ErrTruncated, and a CRC mismatch as ErrCorrupt; no decoder
// sees a byte of a stream that fails any of them.
func Open(data []byte) (*Reader, error) {
	if n := min(len(data), len(Magic)); string(data[:n]) != Magic[:n] {
		return nil, ErrBadMagic
	}
	if len(data) < len(Magic) {
		return nil, ErrTruncated
	}
	version, n := binary.Uvarint(data[len(Magic):])
	if n == 0 {
		return nil, ErrTruncated
	}
	if n < 0 || version != Version {
		return nil, fmt.Errorf("%w: stream has version %d, this build reads %d", ErrVersion, version, Version)
	}
	start, end := len(Magic)+n, len(data)-TrailerLen-len(footer)
	if end < start || !bytes.Equal(data[end:end+len(footer)], footer) {
		return nil, ErrTruncated
	}
	sum := data[len(data)-TrailerLen:]
	if crc32.Checksum(data[:len(data)-TrailerLen], castagnoli) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("%w: CRC-32C mismatch", ErrCorrupt)
	}
	return &Reader{r: bytes.NewReader(data[start:end]), framed: true}, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// End requires the body to be read exactly: bytes left before the footer
// are corruption.
func (r *Reader) End() {
	if r.err != nil {
		return
	}
	if _, err := r.r.ReadByte(); err == nil {
		r.Corrupt("bytes left before the footer")
	}
}

// fail latches a short read, the only error an in-memory stream gives:
// ErrTruncated, or ErrCorrupt inside a body Open verified.
func (r *Reader) fail(err error) {
	if r.err != nil || err == nil {
		return
	}
	r.err = ErrTruncated
	if r.framed {
		r.err = fmt.Errorf("%w: a section runs into the footer", ErrCorrupt)
	}
}

// Corrupt latches a formatted ErrCorrupt (decoders use it for failed
// validation: bad indices, impossible counts).
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Raw reads exactly len(b) bytes into b.
func (r *Reader) Raw(b []byte) {
	if r.err != nil {
		return
	}
	_, err := io.ReadFull(r.r, b)
	r.fail(err)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.fail(err)
	return b
}

// Bool reads a boolean, 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Corrupt("boolean byte 0x%02x", b)
		return false
	}
	return b == 1
}

// U64 reads an unsigned varint in its shortest form.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	n := r.r.Len()
	v, err := binary.ReadUvarint(r.r)
	var shortest [binary.MaxVarintLen64]byte
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		r.fail(err)
	case err != nil:
		r.Corrupt("%v", err)
	case n-r.r.Len() != binary.PutUvarint(shortest[:], v):
		r.Corrupt("varint not in its shortest form")
	default:
		return v
	}
	return 0
}

// I64 reads a signed varint (zigzag).
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed int.
func (r *Reader) Int() int { return int(r.I64()) }

// Len reads a length prefix, validating it against max (and the global
// MaxSliceLen bound).
func (r *Reader) Len(max int) int {
	n := r.U64()
	limit := uint64(max)
	if max < 0 || max > MaxSliceLen {
		limit = MaxSliceLen
	}
	if n > limit {
		r.Corrupt("length %d exceeds limit %d", n, limit)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string of at most max bytes.
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.Raw(b)
	if r.err != nil {
		return nil
	}
	return b
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }

// Section reads a section tag, requiring it to match want.
func (r *Reader) Section(want byte) {
	got := r.Byte()
	if r.err == nil && got != want {
		r.Corrupt("section tag 0x%02x, want 0x%02x", got, want)
	}
}

// Value reads a typed expression value.
func (r *Reader) Value() expr.Value {
	t := expr.Type(r.Byte())
	bits := r.U64()
	if r.err != nil {
		return expr.Value{}
	}
	if t > expr.Double {
		r.Corrupt("value type %d out of range", t)
		return expr.Value{}
	}
	return expr.FromBits(bits, t)
}

// Exception reads an optional fault.
func (r *Reader) Exception() *fault.Exception {
	if !r.Bool() || r.err != nil {
		return nil
	}
	e := &fault.Exception{
		Kind:  fault.Kind(r.Int()),
		Msg:   r.String(1 << 16),
		Cycle: r.U64(),
	}
	e.PC = r.Int()
	if r.err != nil {
		return nil
	}
	return e
}
