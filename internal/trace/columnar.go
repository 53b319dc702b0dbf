package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"iotaxo/internal/sim"
)

// Columnar trace format (v2). Where the v1 binary format stores row-ordered
// records, v2 stores each block column by column — the layout that makes a
// trace file serving infrastructure rather than an archive:
//
//	file    := magic[8] flags[1] dataBlock* indexBlock trailer[12]
//	block   := header[40] payload
//	header  := kind[1] reserved[1] classMask[1] dirMask[1]
//	           count:u32le payloadLen:u32le crc:u32le(payload)
//	           minTime:i64le maxTime:i64le minRank:i32le maxRank:i32le
//	payload := section*          (flate-compressed in data blocks when
//	                              flags&FlagCompressed; the index payload is
//	                              never compressed)
//	section := colID:u8 len:uvarint bytes
//	trailer := indexFramedLen:u32le tailMagic[8]
//
// Per-field columns compress far better than interleaved rows: timestamps
// and offsets are delta-varint (mostly 1-byte deltas), strings go through a
// per-block dictionary (a path repeated 4096 times costs 4096 index bytes
// plus one dictionary entry), and class+direction pack into one byte per
// record. The fixed-width header carries each block's time window, rank
// range, and class/direction masks, and the footer index block repeats them
// for every data block — so a reader with io.ReaderAt answers "bytes written
// by ranks 900-1000 in window X" by decoding only the blocks whose ranges
// intersect the query. CRC-32 per block gives the same ErrCorrupt semantics
// as v1.
//
// Blocks restart their delta chains and dictionaries, so each is
// self-contained: a stream cut after any block boundary (a writer that
// Flushed but never Closed) still reads sequentially; only indexed queries
// need the footer.

var (
	columnarMagic = [8]byte{'I', 'O', 'T', 'X', 'C', 'O', 'L', '2'}
	columnarTail  = [8]byte{'I', 'O', 'T', 'X', 'E', 'N', 'D', '2'}
)

// Block kinds (header byte 0).
const (
	blockData  byte = 0
	blockIndex byte = 1
)

// indexStatsV1 tags the footer-index extension carrying per-block
// offset/bytes/span min/max statistics.
const indexStatsV1 byte = 1

const (
	columnarHeaderLen = 9  // magic + flags
	blockHeaderLen    = 40 // fixed-width block header
	trailerLen        = 12 // index framed length + tail magic
)

// Column section IDs. The dictionary section always comes first in a
// payload; column sections follow in ID order.
const (
	colDict     byte = 1  // count:uvarint (len:uvarint bytes)*
	colTimes    byte = 2  // delta varint
	colDurs     byte = 3  // varint
	colClassDir byte = 4  // 1 byte per record: class | dir<<4
	colRanks    byte = 5  // delta varint
	colPIDs     byte = 6  // delta varint
	colNodes    byte = 7  // uvarint dict index
	colNames    byte = 8  // uvarint dict index
	colPaths    byte = 9  // uvarint dict index
	colRets     byte = 10 // uvarint dict index
	colArgs     byte = 11 // argc:uvarint (tag:uvarint)*; tag bit0: 1 = inline zigzag int, 0 = dict index<<1
	colOffsets  byte = 12 // delta varint
	colBytes    byte = 13 // varint
	colUIDs     byte = 14 // varint
	colGIDs     byte = 15 // varint, relative to the row's uid (gid == uid in practice, so the column is zeros)
	colSpans    byte = 16 // delta varint; present only when the block has spans
	colParents  byte = 17 // delta varint; present only when the block has spans

	maxColID = 17
)

// DefaultColumnarRecordsPerBlock is the v2 block size. Larger than v1's 512
// because the per-block string dictionary amortizes over the block: at 4096
// records the dictionary overhead is noise and column runs are long enough
// for delta chains to pay off, while a block still decodes in well under a
// millisecond.
const DefaultColumnarRecordsPerBlock = 4096

// ColumnarOptions configures a ColumnarWriter.
type ColumnarOptions struct {
	Compress        bool
	Anonymized      bool
	RecordsPerBlock int // block cut threshold; <=0 means DefaultColumnarRecordsPerBlock
}

// BlockMeta describes one data block: its position in the file and the
// ranges the query planner prunes on. The writer records one per block and
// serializes them into the footer index.
type BlockMeta struct {
	Offset    int64 // file offset of the block header
	Len       int64 // header + stored payload
	Count     int   // records in the block
	MinTime   sim.Time
	MaxTime   sim.Time
	MinRank   int
	MaxRank   int
	ClassMask uint8 // bit i set: block contains EventClass(i)
	DirMask   uint8 // bit i set: block contains IODir(i)

	// Extended per-block statistics, carried in a versioned footer-index
	// extension appended after the legacy entries. Files written before the
	// extension existed parse with HasStats == false: such blocks can be
	// neither pruned nor wholly contained by offset/bytes/span predicates.
	HasStats  bool
	MinOffset int64
	MaxOffset int64
	MinBytes  int64
	MaxBytes  int64
	MinSpan   uint64
	MaxSpan   uint64
}

// blockEncoder accumulates one block's columns incrementally; records are
// never buffered row-wise.
type blockEncoder struct {
	count     int
	classMask uint8
	dirMask   uint8
	minTime   sim.Time
	maxTime   sim.Time
	minRank   int
	maxRank   int
	minOffset int64
	maxOffset int64
	minBytes  int64
	maxBytes  int64
	minSpan   uint64
	maxSpan   uint64
	hasSpan   bool // any record carries a nonzero Span/Parent

	prevTime   int64
	prevRank   int64
	prevPID    int64
	prevOffset int64
	prevSpan   int64
	prevParent int64

	dict map[string]uint64
	// argSeen counts inline emissions of numeric args not yet interned: a
	// value that keeps recurring graduates into the dictionary (two 3-byte
	// inline copies cost less than a dictionary entry; a third copy would
	// not), while one-shot numerics (striding offsets) never pollute it.
	argSeen  map[string]uint8
	dictBuf  bytes.Buffer
	dictLen  int
	times    bytes.Buffer
	durs     bytes.Buffer
	classdir bytes.Buffer
	ranks    bytes.Buffer
	pids     bytes.Buffer
	nodes    bytes.Buffer
	names    bytes.Buffer
	paths    bytes.Buffer
	rets     bytes.Buffer
	args     bytes.Buffer
	offsets  bytes.Buffer
	bytesCol bytes.Buffer
	uids     bytes.Buffer
	gids     bytes.Buffer
	spans    bytes.Buffer
	parents  bytes.Buffer
}

// idx interns s in the block dictionary and returns its index.
func (e *blockEncoder) idx(s string) uint64 {
	if e.dict == nil {
		e.dict = make(map[string]uint64)
	}
	if i, ok := e.dict[s]; ok {
		return i
	}
	i := uint64(e.dictLen)
	e.dict[s] = i
	e.dictLen++
	putString(&e.dictBuf, s)
	return i
}

// inlineArgInt reports whether arg is a canonical decimal integer that can
// ride inline in the args column instead of growing the block dictionary —
// the escape hatch for per-record numerics (striding offsets) where every
// value is distinct and a dictionary entry would never be reused. The
// canonical-form check guarantees exact round-trip; the range guard keeps
// zigzag<<1 from overflowing the tag varint.
func inlineArgInt(arg string) (int64, bool) {
	if arg == "" || len(arg) > 19 {
		return 0, false
	}
	v, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || v <= -(1<<61) || v >= 1<<61 {
		return 0, false
	}
	if strconv.FormatInt(v, 10) != arg {
		return 0, false // non-canonical: leading zeros, "+", "-0"
	}
	return v, true
}

// zigzag / unzigzag fold signed integers into small uvarints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// add appends one record to the block's columns.
func (e *blockEncoder) add(r *Record) error {
	if r.Class >= 8 {
		return fmt.Errorf("trace: class %d does not fit columnar class/dir packing", r.Class)
	}
	dir := r.Direction()
	if e.count == 0 {
		e.minTime, e.maxTime = r.Time, r.Time
		e.minRank, e.maxRank = r.Rank, r.Rank
		e.minOffset, e.maxOffset = r.Offset, r.Offset
		e.minBytes, e.maxBytes = r.Bytes, r.Bytes
		e.minSpan, e.maxSpan = r.Span, r.Span
	} else {
		if r.Time < e.minTime {
			e.minTime = r.Time
		}
		if r.Time > e.maxTime {
			e.maxTime = r.Time
		}
		if r.Rank < e.minRank {
			e.minRank = r.Rank
		}
		if r.Rank > e.maxRank {
			e.maxRank = r.Rank
		}
		if r.Offset < e.minOffset {
			e.minOffset = r.Offset
		}
		if r.Offset > e.maxOffset {
			e.maxOffset = r.Offset
		}
		if r.Bytes < e.minBytes {
			e.minBytes = r.Bytes
		}
		if r.Bytes > e.maxBytes {
			e.maxBytes = r.Bytes
		}
		if r.Span < e.minSpan {
			e.minSpan = r.Span
		}
		if r.Span > e.maxSpan {
			e.maxSpan = r.Span
		}
	}
	if r.Span != 0 || r.Parent != 0 {
		e.hasSpan = true
	}
	e.classMask |= 1 << uint(r.Class)
	e.dirMask |= 1 << uint(dir)

	putVarint(&e.times, int64(r.Time)-e.prevTime)
	e.prevTime = int64(r.Time)
	putVarint(&e.durs, int64(r.Dur))
	e.classdir.WriteByte(byte(r.Class) | byte(dir)<<4)
	putVarint(&e.ranks, int64(r.Rank)-e.prevRank)
	e.prevRank = int64(r.Rank)
	putVarint(&e.pids, int64(r.PID)-e.prevPID)
	e.prevPID = int64(r.PID)
	putUvarint(&e.nodes, e.idx(r.Node))
	putUvarint(&e.names, e.idx(r.Name))
	putUvarint(&e.paths, e.idx(r.Path))
	putUvarint(&e.rets, e.idx(r.Ret))
	putUvarint(&e.args, uint64(len(r.Args)))
	for _, a := range r.Args {
		if i, ok := e.dict[a]; ok {
			putUvarint(&e.args, i<<1) // already interned: cheapest form
			continue
		}
		if v, ok := inlineArgInt(a); ok && e.argSeen[a] < 2 {
			if e.argSeen == nil {
				e.argSeen = make(map[string]uint8)
			}
			e.argSeen[a]++
			putUvarint(&e.args, zigzag(v)<<1|1)
			continue
		}
		putUvarint(&e.args, e.idx(a)<<1)
	}
	putVarint(&e.offsets, r.Offset-e.prevOffset)
	e.prevOffset = r.Offset
	putVarint(&e.bytesCol, r.Bytes)
	putVarint(&e.uids, int64(r.UID))
	putVarint(&e.gids, int64(r.GID)-int64(r.UID))
	putVarint(&e.spans, int64(r.Span)-e.prevSpan)
	e.prevSpan = int64(r.Span)
	putVarint(&e.parents, int64(r.Parent)-e.prevParent)
	e.prevParent = int64(r.Parent)
	e.count++
	return nil
}

// payload assembles the block's sections: dictionary first, columns in ID
// order.
func (e *blockEncoder) payload() []byte {
	var out bytes.Buffer
	section := func(id byte, data []byte) {
		out.WriteByte(id)
		putUvarint(&out, uint64(len(data)))
		out.Write(data)
	}
	var dict bytes.Buffer
	putUvarint(&dict, uint64(e.dictLen))
	dict.Write(e.dictBuf.Bytes())
	section(colDict, dict.Bytes())
	section(colTimes, e.times.Bytes())
	section(colDurs, e.durs.Bytes())
	section(colClassDir, e.classdir.Bytes())
	section(colRanks, e.ranks.Bytes())
	section(colPIDs, e.pids.Bytes())
	section(colNodes, e.nodes.Bytes())
	section(colNames, e.names.Bytes())
	section(colPaths, e.paths.Bytes())
	section(colRets, e.rets.Bytes())
	section(colArgs, e.args.Bytes())
	section(colOffsets, e.offsets.Bytes())
	section(colBytes, e.bytesCol.Bytes())
	section(colUIDs, e.uids.Bytes())
	section(colGIDs, e.gids.Bytes())
	// Span columns ride only in blocks that have spans, so span-less streams
	// produce block payloads byte-identical to writers that predate them.
	if e.hasSpan {
		section(colSpans, e.spans.Bytes())
		section(colParents, e.parents.Bytes())
	}
	return out.Bytes()
}

// reset clears the encoder for the next block; delta chains and the
// dictionary restart so every block is self-contained.
func (e *blockEncoder) reset() {
	*e = blockEncoder{}
}

// packBlockHeader renders the fixed-width block header.
func packBlockHeader(kind byte, m BlockMeta, payloadLen int, crc uint32) [blockHeaderLen]byte {
	var h [blockHeaderLen]byte
	h[0] = kind
	h[2] = m.ClassMask
	h[3] = m.DirMask
	binary.LittleEndian.PutUint32(h[4:], uint32(m.Count))
	binary.LittleEndian.PutUint32(h[8:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(h[12:], crc)
	binary.LittleEndian.PutUint64(h[16:], uint64(int64(m.MinTime)))
	binary.LittleEndian.PutUint64(h[24:], uint64(int64(m.MaxTime)))
	binary.LittleEndian.PutUint32(h[32:], uint32(int32(m.MinRank)))
	binary.LittleEndian.PutUint32(h[36:], uint32(int32(m.MaxRank)))
	return h
}

// blockCRC computes a block's checksum: CRC-32 over the header with its CRC
// field zeroed, then the stored payload. Covering the header extends v1's
// corruption semantics to the pruning metadata (ranges, masks, counts) that
// lives outside the payload.
func blockCRC(hdr, payload []byte) uint32 {
	var h [blockHeaderLen]byte
	copy(h[:], hdr)
	h[12], h[13], h[14], h[15] = 0, 0, 0, 0
	return crc32.Update(crc32.ChecksumIEEE(h[:]), crc32.IEEETable, payload)
}

// blockHeader is the parsed form.
type blockHeader struct {
	kind       byte
	classMask  uint8
	dirMask    uint8
	count      int
	payloadLen int
	crc        uint32
	minTime    sim.Time
	maxTime    sim.Time
	minRank    int
	maxRank    int
}

// parseBlockHeader validates and unpacks a fixed-width block header.
func parseBlockHeader(h []byte) (blockHeader, error) {
	if len(h) < blockHeaderLen {
		return blockHeader{}, fmt.Errorf("%w: short block header", ErrCorrupt)
	}
	bh := blockHeader{
		kind:       h[0],
		classMask:  h[2],
		dirMask:    h[3],
		count:      int(binary.LittleEndian.Uint32(h[4:])),
		payloadLen: int(binary.LittleEndian.Uint32(h[8:])),
		crc:        binary.LittleEndian.Uint32(h[12:]),
		minTime:    sim.Time(int64(binary.LittleEndian.Uint64(h[16:]))),
		maxTime:    sim.Time(int64(binary.LittleEndian.Uint64(h[24:]))),
		minRank:    int(int32(binary.LittleEndian.Uint32(h[32:]))),
		maxRank:    int(int32(binary.LittleEndian.Uint32(h[36:]))),
	}
	if bh.kind != blockData && bh.kind != blockIndex {
		return blockHeader{}, fmt.Errorf("%w: bad block kind %d", ErrCorrupt, bh.kind)
	}
	if h[1] != 0 {
		return blockHeader{}, fmt.Errorf("%w: bad reserved byte", ErrCorrupt)
	}
	if bh.payloadLen > 1<<30 || bh.count > 1<<28 {
		return blockHeader{}, fmt.Errorf("%w: unreasonable block size", ErrCorrupt)
	}
	return bh, nil
}

// ColumnarWriter encodes records into the columnar v2 format. Close must be
// called to flush the final block and append the footer index and trailer;
// a stream that was only Flushed remains readable sequentially but cannot
// serve indexed queries.
type ColumnarWriter struct {
	w       io.Writer
	opts    ColumnarOptions
	enc     blockEncoder
	index   []BlockMeta
	started bool
	closed  bool
	n       int64
	err     error
}

// NewColumnarWriter returns a v2 writer; Close must be called.
func NewColumnarWriter(w io.Writer, opts ColumnarOptions) *ColumnarWriter {
	if opts.RecordsPerBlock <= 0 {
		opts.RecordsPerBlock = DefaultColumnarRecordsPerBlock
	}
	return &ColumnarWriter{w: w, opts: opts}
}

func (c *ColumnarWriter) writeHeader() {
	if c.started || c.err != nil {
		return
	}
	c.started = true
	var flags byte
	if c.opts.Compress {
		flags |= FlagCompressed
	}
	if c.opts.Anonymized {
		flags |= FlagAnonymized
	}
	hdr := append(columnarMagic[:], flags)
	n, err := c.w.Write(hdr)
	c.n += int64(n)
	c.err = err
}

// Write appends one record, cutting a block when the threshold is reached.
func (c *ColumnarWriter) Write(r *Record) error {
	if c.err != nil {
		return c.err
	}
	c.writeHeader()
	if err := c.enc.add(r); err != nil {
		c.err = err
		return err
	}
	if c.enc.count >= c.opts.RecordsPerBlock {
		return c.Flush()
	}
	return c.err
}

// Flush cuts the pending partial block, if any. Frequent flushes shrink
// blocks and cost compression ratio, exactly like v1.
func (c *ColumnarWriter) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.writeHeader()
	if c.enc.count == 0 {
		return c.err
	}
	meta := BlockMeta{
		Count:     c.enc.count,
		MinTime:   c.enc.minTime,
		MaxTime:   c.enc.maxTime,
		MinRank:   c.enc.minRank,
		MaxRank:   c.enc.maxRank,
		ClassMask: c.enc.classMask,
		DirMask:   c.enc.dirMask,
		HasStats:  true,
		MinOffset: c.enc.minOffset,
		MaxOffset: c.enc.maxOffset,
		MinBytes:  c.enc.minBytes,
		MaxBytes:  c.enc.maxBytes,
		MinSpan:   c.enc.minSpan,
		MaxSpan:   c.enc.maxSpan,
	}
	payload := c.enc.payload()
	c.enc.reset()
	stored := payload
	if c.opts.Compress {
		var cb bytes.Buffer
		fw, err := flate.NewWriter(&cb, flate.BestSpeed)
		if err != nil {
			c.err = err
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			c.err = err
			return err
		}
		if err := fw.Close(); err != nil {
			c.err = err
			return err
		}
		stored = cb.Bytes()
	}
	meta.Offset = c.n
	meta.Len = int64(blockHeaderLen + len(stored))
	hdr := packBlockHeader(blockData, meta, len(stored), 0)
	binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr[:], stored))
	if err := c.writeAll(hdr[:], stored); err != nil {
		return err
	}
	c.index = append(c.index, meta)
	return c.err
}

// writeAll writes the given byte slices, accounting and sticking errors.
func (c *ColumnarWriter) writeAll(bufs ...[]byte) error {
	for _, b := range bufs {
		n, err := c.w.Write(b)
		c.n += int64(n)
		if err != nil {
			c.err = err
			return err
		}
	}
	return nil
}

// Close flushes the final block and writes the footer index block and
// trailer. The index payload stores only each block's framed length plus its
// pruning ranges; offsets reconstruct by accumulation because data blocks
// are contiguous from the stream header on.
func (c *ColumnarWriter) Close() error {
	if c.closed {
		return c.err
	}
	if err := c.Flush(); err != nil {
		c.closed = true
		return err
	}
	c.closed = true

	var payload bytes.Buffer
	putUvarint(&payload, uint64(len(c.index)))
	agg := BlockMeta{Count: len(c.index)}
	for i, m := range c.index {
		putUvarint(&payload, uint64(m.Len))
		putUvarint(&payload, uint64(m.Count))
		putVarint(&payload, int64(m.MinTime))
		putUvarint(&payload, uint64(m.MaxTime-m.MinTime))
		putVarint(&payload, int64(m.MinRank))
		putUvarint(&payload, uint64(m.MaxRank-m.MinRank))
		payload.WriteByte(m.ClassMask)
		payload.WriteByte(m.DirMask)
		if i == 0 {
			agg.MinTime, agg.MaxTime = m.MinTime, m.MaxTime
			agg.MinRank, agg.MaxRank = m.MinRank, m.MaxRank
		} else {
			if m.MinTime < agg.MinTime {
				agg.MinTime = m.MinTime
			}
			if m.MaxTime > agg.MaxTime {
				agg.MaxTime = m.MaxTime
			}
			if m.MinRank < agg.MinRank {
				agg.MinRank = m.MinRank
			}
			if m.MaxRank > agg.MaxRank {
				agg.MaxRank = m.MaxRank
			}
		}
		agg.ClassMask |= m.ClassMask
		agg.DirMask |= m.DirMask
	}
	// Versioned extension after the legacy entries: per-block min/max for
	// Offset, Bytes, and Span, enabling offset/bytes/span predicate pushdown.
	// Files written before the extension end exactly at the legacy entries,
	// so the parser treats zero trailing bytes as "no stats" (HasStats false)
	// and an unknown version byte as an ignorable future extension.
	payload.WriteByte(indexStatsV1)
	for _, m := range c.index {
		putVarint(&payload, m.MinOffset)
		putUvarint(&payload, uint64(m.MaxOffset-m.MinOffset))
		putVarint(&payload, m.MinBytes)
		putUvarint(&payload, uint64(m.MaxBytes-m.MinBytes))
		putUvarint(&payload, m.MinSpan)
		putUvarint(&payload, m.MaxSpan-m.MinSpan)
	}
	hdr := packBlockHeader(blockIndex, agg, payload.Len(), 0)
	binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr[:], payload.Bytes()))
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(blockHeaderLen+payload.Len()))
	copy(trailer[4:], columnarTail[:])
	return c.writeAll(hdr[:], payload.Bytes(), trailer[:])
}

// BytesWritten reports the encoded size so far.
func (c *ColumnarWriter) BytesWritten() int64 { return c.n }

// BlocksWritten reports the number of data blocks emitted so far.
func (c *ColumnarWriter) BlocksWritten() int64 { return int64(len(c.index)) }

// Index returns the block metadata written so far (complete after Close).
func (c *ColumnarWriter) Index() []BlockMeta { return c.index }

// parseIndexPayload inverts the Close encoding. firstOffset is where the
// first data block starts (just past the stream header); limit is where data
// blocks must end (the index block's own offset).
func parseIndexPayload(payload []byte, firstOffset, limit int64) ([]BlockMeta, error) {
	br := bytes.NewReader(payload)
	n, err := binary.ReadUvarint(br)
	// Every entry takes at least eight bytes, so a count beyond the payload
	// length is corrupt and must not size the allocation below.
	if err != nil || n > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: bad index block count", ErrCorrupt)
	}
	metas := make([]BlockMeta, 0, n)
	off := firstOffset
	for i := uint64(0); i < n; i++ {
		var m BlockMeta
		u := func() uint64 {
			v, e := binary.ReadUvarint(br)
			if e != nil {
				err = e
			}
			return v
		}
		v := func() int64 {
			v, e := binary.ReadVarint(br)
			if e != nil {
				err = e
			}
			return v
		}
		m.Offset = off
		m.Len = int64(u())
		m.Count = int(u())
		m.MinTime = sim.Time(v())
		m.MaxTime = m.MinTime + sim.Time(u())
		m.MinRank = int(v())
		m.MaxRank = m.MinRank + int(u())
		cm, e1 := br.ReadByte()
		dm, e2 := br.ReadByte()
		if err != nil || e1 != nil || e2 != nil {
			return nil, fmt.Errorf("%w: truncated index entry", ErrCorrupt)
		}
		m.ClassMask, m.DirMask = cm, dm
		off += m.Len
		if m.Len <= blockHeaderLen || off > limit {
			return nil, fmt.Errorf("%w: index entry out of bounds", ErrCorrupt)
		}
		metas = append(metas, m)
	}
	if off != limit {
		return nil, fmt.Errorf("%w: index does not cover data blocks", ErrCorrupt)
	}
	if br.Len() == 0 {
		return metas, nil // pre-extension file: no per-block stats
	}
	ver, _ := br.ReadByte()
	if ver != indexStatsV1 {
		return metas, nil // future extension: stats unusable, but the file is fine
	}
	for i := range metas {
		m := &metas[i]
		u := func() uint64 {
			v, e := binary.ReadUvarint(br)
			if e != nil {
				err = e
			}
			return v
		}
		v := func() int64 {
			v, e := binary.ReadVarint(br)
			if e != nil {
				err = e
			}
			return v
		}
		m.MinOffset = v()
		m.MaxOffset = m.MinOffset + int64(u())
		m.MinBytes = v()
		m.MaxBytes = m.MinBytes + int64(u())
		m.MinSpan = u()
		m.MaxSpan = m.MinSpan + u()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated index stats", ErrCorrupt)
		}
		m.HasStats = true
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in index block", ErrCorrupt)
	}
	return metas, nil
}
