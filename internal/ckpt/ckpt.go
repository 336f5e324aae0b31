// Package ckpt implements the simulator's versioned binary checkpoint
// wire format: the primitives every stateful package uses to serialize
// itself (varint integers, length-prefixed byte strings, typed values),
// the self-describing header (magic, format version, configuration hash)
// and the stable sentinel errors the API layer maps onto machine-readable
// error codes.
//
// The format is strictly deterministic: encoding the same machine state
// twice produces byte-identical output (maps are encoded in sorted order
// by their owners), which is what makes golden-file tests and
// checkpoint-hash determinism checks possible. docs/checkpoint.md
// documents the layout.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
)

// Magic identifies a checkpoint stream ("RISC-V Simulator Checkpoint").
const Magic = "RVSC"

// Version is the current format version. Decoders reject newer versions;
// older versions may be migrated in place when the layout allows it.
const Version = 1

// FooterMagic terminates a checkpoint so tail truncation is detectable
// even when every section happened to decode.
const FooterMagic uint32 = 0x4B435652 // "RVCK" little-endian

// Sentinel errors, mapped onto stable API error codes by internal/api.
var (
	// ErrBadMagic: the stream does not start with Magic.
	ErrBadMagic = errors.New("ckpt: not a checkpoint stream (bad magic)")
	// ErrVersion: the stream's format version is newer than this build.
	ErrVersion = errors.New("ckpt: unsupported checkpoint format version")
	// ErrConfigHash: the embedded configuration does not match the hash
	// recorded in the header (corruption or tampering).
	ErrConfigHash = errors.New("ckpt: configuration hash mismatch")
	// ErrTruncated: the stream ended before the checkpoint was complete.
	ErrTruncated = errors.New("ckpt: truncated checkpoint stream")
	// ErrCorrupt: a section tag, length or index is out of range.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint stream")
)

// Section tags give every block of the stream a one-byte self-describing
// marker, so decoding failures carry context and layout drift is caught
// immediately rather than as garbage state.
const (
	SecHeader    byte = 0x01
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

// ConfigHash is the header's integrity hash over the embedded
// architecture JSON: FNV-1a 64.
func ConfigHash(configJSON []byte) uint64 {
	h := fnv.New64a()
	h.Write(configJSON)
	return h.Sum64()
}

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

// Fixed64 writes 8 little-endian bytes (used for the header hash so it is
// readable in hex dumps).
func (w *Writer) Fixed64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.Raw(w.scratch[:8])
}

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
// ErrTruncated, any malformed length or tag as ErrCorrupt.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// fail latches the first error, mapping EOF onto ErrTruncated.
func (r *Reader) fail(err error) {
	if r.err != nil || err == nil {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = ErrTruncated
	}
	r.err = err
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

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.fail(err)
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.fail(err)
	return v
}

// Int reads a signed int.
func (r *Reader) Int() int { return int(r.I64()) }

// Fixed64 reads 8 little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	var b [8]byte
	r.Raw(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

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
