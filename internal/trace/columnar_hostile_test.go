package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// hugePayloadStream is a 49-byte v2 stream: the magic, flags 0, and one data
// block header claiming a 2^30-byte payload that never arrives.
func hugePayloadStream() []byte {
	data := append(append([]byte(nil), columnarMagic[:]...), 0)
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<30)
	return append(data, hdr[:]...)
}

// hugeCountStream encodes one record, then patches its block header (and,
// when closed, its footer index entry) to claim 2^24 records, with the
// block CRC recomputed so the lie survives the checksum.
func hugeCountStream(t testing.TB, closed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, ColumnarOptions{})
	rec := Record{Rank: 3, Class: ClassSyscall, Name: "SYS_write", Bytes: 8}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[columnarHeaderLen : columnarHeaderLen+blockHeaderLen]
	binary.LittleEndian.PutUint32(hdr[4:], 1<<24)
	binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr, buf.Bytes()[columnarHeaderLen+blockHeaderLen:]))
	if closed {
		w.index[0].Count = 1 << 24
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), buf.Bytes()...)
}

// hugeIndexStream is a closed v2 stream with no data blocks whose footer
// index (CRC valid) claims 2^20 entries in a 3-byte payload.
func hugeIndexStream() []byte {
	payload := binary.AppendUvarint(nil, 1<<20)
	hdr := packBlockHeader(blockIndex, BlockMeta{}, len(payload), 0)
	binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr[:], payload))
	data := append(append([]byte(nil), columnarMagic[:]...), 0)
	data = append(append(data, hdr[:]...), payload...)
	data = binary.LittleEndian.AppendUint32(data, uint32(blockHeaderLen+len(payload)))
	return append(data, columnarTail[:]...)
}

// allocDuring reports the bytes allocated while fn runs.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A block header may claim up to 1 GiB; the sequential reader must not
// allocate that before the payload bytes actually arrive.
func TestColumnarSourceHugeBlockHeaderBoundedAlloc(t *testing.T) {
	data := hugePayloadStream()
	var err error
	alloc := allocDuring(func() { _, err = NewColumnarSource(bytes.NewReader(data)).ReadAll() })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated block") {
		t.Fatalf("err = %v, want ErrCorrupt truncated block", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %.1f MiB, want < 1 MiB", len(data), float64(alloc)/(1<<20))
	}
}

// A block header may claim up to 2^28 records; the column decoders size
// their slices by that count, so a count the payload cannot hold must be
// rejected before any column decodes, on the sequential and indexed paths.
func TestColumnarHugeBlockCountBoundedAlloc(t *testing.T) {
	check := func(path string, n int, alloc uint64, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds payload") {
			t.Errorf("%s: err = %v, want ErrCorrupt count exceeds payload", path, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %.1f MiB, want < 1 MiB", path, n, float64(alloc)/(1<<20))
		}
	}

	flushed := hugeCountStream(t, false)
	var err error
	alloc := allocDuring(func() { _, err = NewColumnarSource(bytes.NewReader(flushed)).ReadAll() })
	check("ColumnarSource", len(flushed), alloc, err)

	closed := hugeCountStream(t, true)
	cr, err := NewColumnarReader(bytes.NewReader(closed), int64(len(closed)))
	if err != nil {
		t.Fatal(err)
	}
	alloc = allocDuring(func() {
		_, err = cr.ScanViews(MatchAll(), 1, func(*BlockView, []int) error { return nil })
	})
	check("ScanViews", len(closed), alloc, err)
}

// The footer index sizes its entry slice by its declared count; a count
// the index payload cannot hold must fail before that allocation, for the
// sequential reader and the indexed open alike.
func TestColumnarHugeIndexCountBoundedAlloc(t *testing.T) {
	data := hugeIndexStream()
	for _, tc := range []struct {
		path string
		open func() error
	}{
		{"ColumnarSource", func() error { _, err := NewColumnarSource(bytes.NewReader(data)).ReadAll(); return err }},
		{"NewColumnarReader", func() error { _, err := NewColumnarReader(bytes.NewReader(data), int64(len(data))); return err }},
	} {
		var err error
		alloc := allocDuring(func() { err = tc.open() })
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad index block count") {
			t.Errorf("%s: err = %v, want ErrCorrupt bad index block count", tc.path, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %.1f MiB, want < 1 MiB", tc.path, len(data), float64(alloc)/(1<<20))
		}
	}
}

// resealCRCs returns a copy of a v2 stream with every complete block's CRC
// recomputed, so fuzzed payload and header bytes reach the decoders behind
// the checksum instead of all failing it.
func resealCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	off := columnarHeaderLen
	for off+blockHeaderLen <= len(out) {
		hdr := out[off : off+blockHeaderLen]
		end := off + blockHeaderLen + int(binary.LittleEndian.Uint32(hdr[8:]))
		if end > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr, out[off+blockHeaderLen:end]))
		off = end
	}
	return out
}

// addColumnarSeeds seeds a v2 fuzz target with well-formed streams (plain
// and compressed, with and without spans, flushed-only and Closed, ranks
// beyond int32) and the hostile streams above.
func addColumnarSeeds(f *testing.F) {
	recs := randomRecords(40, 5)
	recs[0].Rank, recs[1].Rank = 1<<40, -1<<40
	for _, opts := range []ColumnarOptions{
		{RecordsPerBlock: 16},
		{RecordsPerBlock: 16, Compress: true},
	} {
		for _, in := range [][]Record{recs, withSpans(recs, 9)} {
			var buf bytes.Buffer
			w := NewColumnarWriter(&buf, opts)
			for i := range in {
				if err := w.Write(&in[i]); err != nil {
					f.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), buf.Bytes()...)) // flushed, never closed
			if err := w.Close(); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add(hugePayloadStream())
	f.Add(hugeCountStream(f, false))
	f.Add(hugeCountStream(f, true))
	f.Add(hugeIndexStream())
}

// FuzzColumnarSource feeds arbitrary bytes, raw and with block CRCs
// resealed, to the sequential v2 reader. Decoding must never panic, every
// error must wrap ErrCorrupt, and a stream that decodes must survive
// encode -> decode unchanged.
func FuzzColumnarSource(f *testing.F) {
	addColumnarSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealCRCs(data)} {
			got, err := NewColumnarSource(bytes.NewReader(in)).ReadAll()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			var buf bytes.Buffer
			if err := WriteAll(NewColumnarWriter(&buf, ColumnarOptions{}), got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := NewColumnarSource(&buf).ReadAll()
			if err != nil {
				t.Fatalf("decode of re-encoded stream: %v", err)
			}
			if !reflect.DeepEqual(normalizeArgs(got), normalizeArgs(back)) {
				t.Fatal("decode -> encode -> decode changed the records")
			}
		}
	})
}

// FuzzColumnarReader feeds arbitrary bytes, raw and with block CRCs
// resealed, to the indexed v2 reader and runs a match-all Scan and
// ScanViews. Nothing may panic and every error must wrap ErrCorrupt. When
// the input opens and Scan succeeds, it must return exactly the records the
// sequential reader decodes, and ScanViews must visit as many rows.
func FuzzColumnarReader(f *testing.F) {
	addColumnarSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealCRCs(data)} {
			corrupt := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: error does not wrap ErrCorrupt: %v", what, err)
				}
			}
			cr, err := NewColumnarReader(bytes.NewReader(in), int64(len(in)))
			if err != nil {
				corrupt("open", err)
				continue
			}
			scanned, scanErr := Collect(cr.Scan(MatchAll(), 2))
			var rows int64
			_, viewErr := cr.ScanViews(MatchAll(), 2, func(_ *BlockView, r []int) error {
				rows += int64(len(r))
				return nil
			})
			if scanErr != nil {
				corrupt("Scan", scanErr)
			}
			if viewErr != nil {
				corrupt("ScanViews", viewErr)
			}
			if scanErr != nil || viewErr != nil {
				continue
			}
			if rows != int64(len(scanned)) {
				t.Fatalf("ScanViews visited %d rows, Scan returned %d records", rows, len(scanned))
			}
			seq, err := NewColumnarSource(bytes.NewReader(in)).ReadAll()
			if err != nil {
				t.Fatalf("indexed scan succeeded, sequential read failed: %v", err)
			}
			if !reflect.DeepEqual(normalizeArgs(scanned), normalizeArgs(seq)) {
				t.Fatalf("indexed scan returned %d records, sequential read %d, and they differ", len(scanned), len(seq))
			}
		}
	})
}
