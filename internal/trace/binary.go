package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"iotaxo/internal/sim"
)

// Binary trace format (what Tracefs emits):
//
//	file   := magic[8] flags[1] block*
//	block  := payloadLen:u32le crc:u32le(payload) payload
//	payload (flags&FlagCompressed: flate-compressed) := record*
//	record := uvarint fields in a fixed schema (see encodeRecord)
//
// Per-block checksumming detects corruption and truncation; compression and
// block size are options, mirroring the paper's description of Tracefs
// output: "Binary, with optional checksumming, compression, ... or buffering
// (to improve performance)".

var binaryMagic = [8]byte{'I', 'O', 'T', 'X', 'B', 'I', 'N', '1'}

// Binary stream flags.
const (
	FlagCompressed byte = 1 << iota
	FlagAnonymized      // set by anonymization passes for provenance
	FlagSpans           // records carry trailing Span/Parent fields
)

// ErrCorrupt is returned when a block fails its CRC or framing check.
var ErrCorrupt = errors.New("trace: corrupt binary trace")

// BinaryOptions configures a BinaryWriter.
type BinaryOptions struct {
	Compress        bool
	Anonymized      bool
	Spans           bool // encode Span/Parent fields (sets FlagSpans)
	RecordsPerBlock int  // flush threshold; <=0 means 512
}

// BinaryWriter encodes records into the binary format.
type BinaryWriter struct {
	w       io.Writer
	opts    BinaryOptions
	buf     bytes.Buffer
	inBlock int
	started bool
	n       int64
	blocks  int64
	err     error
}

// NewBinaryWriter returns a writer; Close must be called to flush the final
// block.
func NewBinaryWriter(w io.Writer, opts BinaryOptions) *BinaryWriter {
	if opts.RecordsPerBlock <= 0 {
		opts.RecordsPerBlock = 512
	}
	return &BinaryWriter{w: w, opts: opts}
}

func (b *BinaryWriter) writeHeader() {
	if b.started || b.err != nil {
		return
	}
	b.started = true
	var flags byte
	if b.opts.Compress {
		flags |= FlagCompressed
	}
	if b.opts.Anonymized {
		flags |= FlagAnonymized
	}
	if b.opts.Spans {
		flags |= FlagSpans
	}
	hdr := append(binaryMagic[:], flags)
	n, err := b.w.Write(hdr)
	b.n += int64(n)
	b.err = err
}

// Write encodes one record, flushing a block when the threshold is reached.
func (b *BinaryWriter) Write(r *Record) error {
	if b.err != nil {
		return b.err
	}
	b.writeHeader()
	encodeRecord(&b.buf, r, b.opts.Spans)
	b.inBlock++
	if b.inBlock >= b.opts.RecordsPerBlock {
		return b.Flush()
	}
	return b.err
}

// Flush emits the current block, if any.
func (b *BinaryWriter) Flush() error {
	if b.err != nil {
		return b.err
	}
	b.writeHeader()
	if b.buf.Len() == 0 {
		return nil
	}
	framed, err := frameBlock(b.buf.Bytes(), b.opts.Compress)
	if err != nil {
		b.err = err
		return err
	}
	n, err := b.w.Write(framed)
	b.n += int64(n)
	b.err = err
	b.blocks++
	b.buf.Reset()
	b.inBlock = 0
	return b.err
}

// Close flushes the final block.
func (b *BinaryWriter) Close() error { return b.Flush() }

// BytesWritten reports the encoded size so far (flushed blocks only).
func (b *BinaryWriter) BytesWritten() int64 { return b.n }

// BlocksWritten reports the number of blocks emitted so far.
func (b *BinaryWriter) BlocksWritten() int64 { return b.blocks }

// frameBlock compresses (optionally) and frames one block payload with its
// length and CRC-32.
func frameBlock(payload []byte, compress bool) ([]byte, error) {
	if compress {
		var cb bytes.Buffer
		fw, err := flate.NewWriter(&cb, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(payload); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		payload = cb.Bytes()
	}
	framed := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(framed[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[4:], crc32.ChecksumIEEE(payload))
	copy(framed[8:], payload)
	return framed, nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func encodeRecord(buf *bytes.Buffer, r *Record, spans bool) {
	putVarint(buf, int64(r.Time))
	putVarint(buf, int64(r.Dur))
	putString(buf, r.Node)
	putVarint(buf, int64(r.Rank))
	putVarint(buf, int64(r.PID))
	buf.WriteByte(byte(r.Class))
	putString(buf, r.Name)
	putUvarint(buf, uint64(len(r.Args)))
	for _, a := range r.Args {
		putString(buf, a)
	}
	putString(buf, r.Ret)
	putString(buf, r.Path)
	putVarint(buf, r.Offset)
	putVarint(buf, r.Bytes)
	putVarint(buf, int64(r.UID))
	putVarint(buf, int64(r.GID))
	if spans {
		putUvarint(buf, r.Span)
		putUvarint(buf, r.Parent)
	}
}

func decodeRecord(br *bytes.Reader, spans bool) (Record, error) {
	var r Record
	readV := func() (int64, error) { return binary.ReadVarint(br) }
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }
	readS := func() (string, error) {
		n, err := readU()
		if err != nil {
			return "", err
		}
		if n > 1<<24 {
			return "", ErrCorrupt
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var err error
	var v int64
	if v, err = readV(); err != nil {
		return r, err
	}
	r.Time = sim.Time(v)
	if v, err = readV(); err != nil {
		return r, err
	}
	r.Dur = sim.Duration(v)
	if r.Node, err = readS(); err != nil {
		return r, err
	}
	if v, err = readV(); err != nil {
		return r, err
	}
	r.Rank = int(v)
	if v, err = readV(); err != nil {
		return r, err
	}
	r.PID = int(v)
	cb, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	if cb >= byte(numClasses) {
		return r, fmt.Errorf("%w: bad class %d", ErrCorrupt, cb)
	}
	r.Class = EventClass(cb)
	if r.Name, err = readS(); err != nil {
		return r, err
	}
	argc, err := readU()
	if err != nil {
		return r, err
	}
	if argc > 1<<16 {
		return r, ErrCorrupt
	}
	for i := uint64(0); i < argc; i++ {
		a, err := readS()
		if err != nil {
			return r, err
		}
		r.Args = append(r.Args, a)
	}
	if r.Ret, err = readS(); err != nil {
		return r, err
	}
	if r.Path, err = readS(); err != nil {
		return r, err
	}
	if r.Offset, err = readV(); err != nil {
		return r, err
	}
	if r.Bytes, err = readV(); err != nil {
		return r, err
	}
	if v, err = readV(); err != nil {
		return r, err
	}
	r.UID = int(v)
	if v, err = readV(); err != nil {
		return r, err
	}
	r.GID = int(v)
	if spans {
		if r.Span, err = readU(); err != nil {
			return r, err
		}
		if r.Parent, err = readU(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// BinaryReader decodes the binary format, verifying per-block CRCs.
type BinaryReader struct {
	r       io.Reader
	flags   byte
	started bool
	raw     bytes.Buffer // the current block's payload as read, reused
	block   *bytes.Reader
	blocks  int64
}

// BlocksRead reports the number of blocks decoded so far.
func (b *BinaryReader) BlocksRead() int64 { return b.blocks }

// NewBinaryReader wraps r for decoding.
func NewBinaryReader(r io.Reader) *BinaryReader { return &BinaryReader{r: r} }

// Flags returns the stream flags after the first Next call.
func (b *BinaryReader) Flags() byte { return b.flags }

func (b *BinaryReader) readHeader() error {
	if b.started {
		return nil
	}
	b.started = true
	var hdr [9]byte
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], binaryMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	b.flags = hdr[8]
	return nil
}

func (b *BinaryReader) nextBlock() error {
	var hdr [8]byte
	if _, err := io.ReadFull(b.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if plen > 1<<30 {
		return fmt.Errorf("%w: unreasonable block size %d", ErrCorrupt, plen)
	}
	// The payload buffer grows with the bytes actually read, so a header
	// claiming a huge block cannot force a huge allocation up front.
	b.raw.Reset()
	if n, err := b.raw.ReadFrom(io.LimitReader(b.r, int64(plen))); err != nil || n < int64(plen) {
		return fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	payload := b.raw.Bytes()
	if crc32.ChecksumIEEE(payload) != want {
		return fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	if b.flags&FlagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(payload))
		out, err := io.ReadAll(fr)
		if err != nil {
			return fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
		payload = out
	}
	b.block = bytes.NewReader(payload)
	b.blocks++
	return nil
}

// Next returns the next record or io.EOF.
func (b *BinaryReader) Next() (Record, error) {
	if err := b.readHeader(); err != nil {
		return Record{}, err
	}
	for b.block == nil || b.block.Len() == 0 {
		if err := b.nextBlock(); err != nil {
			return Record{}, err
		}
	}
	rec, err := decodeRecord(b.block, b.flags&FlagSpans != 0)
	if err != nil {
		return Record{}, fmt.Errorf("%w: record decode: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// ReadAll drains the stream.
func (b *BinaryReader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := b.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
