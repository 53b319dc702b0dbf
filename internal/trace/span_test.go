package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"iotaxo/internal/sim"
)

// withSpans stamps a deterministic causal chain onto records: each record
// gets a fresh span and a parent pointing somewhere earlier (or 0).
func withSpans(recs []Record, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := append([]Record(nil), recs...)
	for i := range out {
		out[i].Span = uint64(i + 1)
		if i > 0 && rng.Intn(3) > 0 {
			out[i].Parent = uint64(rng.Intn(i) + 1)
		} else {
			out[i].Parent = 0
		}
	}
	return out
}

func stripSpans(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		out[i].Span, out[i].Parent = 0, 0
	}
	return out
}

func TestBinarySpanRoundTrip(t *testing.T) {
	in := withSpans(normalizeArgs(randomRecords(300, 11)), 12)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{Compress: compress, Spans: true})
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		src := NewBinaryReader(bytes.NewReader(buf.Bytes()))
		out, err := src.ReadAll()
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if src.Flags()&FlagSpans == 0 {
			t.Fatal("FlagSpans not set on span-carrying stream")
		}
		if !reflect.DeepEqual(in, normalizeArgs(out)) {
			t.Fatalf("compress=%v: span round trip mismatch", compress)
		}
	}
}

// TestBinaryDefaultDropsSpans pins v1 backward compatibility: with spans off
// (the default), the encoded stream is byte-identical to one built from
// span-less records — existing readers and goldens see the classic format —
// and decoding returns records without span info.
func TestBinaryDefaultDropsSpans(t *testing.T) {
	spanned := withSpans(normalizeArgs(randomRecords(200, 31)), 32)
	plain := stripSpans(spanned)
	enc := func(recs []Record) []byte {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{})
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(spanned), enc(plain)
	if !bytes.Equal(a, b) {
		t.Fatal("span fields leaked into default v1 encoding")
	}
	src := NewBinaryReader(bytes.NewReader(a))
	out, err := src.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if src.Flags()&FlagSpans != 0 {
		t.Fatal("FlagSpans set on default stream")
	}
	for i := range out {
		if out[i].HasSpan() {
			t.Fatalf("record %d decoded with span info from flagless stream", i)
		}
	}
}

func TestColumnarSpanRoundTrip(t *testing.T) {
	in := withSpans(normalizeArgs(randomRecords(400, 41)), 42)
	for _, compress := range []bool{false, true} {
		data := writeColumnar(t, in, ColumnarOptions{Compress: compress, RecordsPerBlock: 64})
		out, err := NewColumnarSource(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if !reflect.DeepEqual(in, normalizeArgs(out)) {
			t.Fatalf("compress=%v: columnar span round trip mismatch", compress)
		}
	}
}

// TestColumnarSpanlessOmitsSpanColumns pins the v2 compatibility story:
// span-less records produce blocks without span sections (same payload
// shape as pre-span writers), and tolerant readers return zero spans.
func TestColumnarSpanlessOmitsSpanColumns(t *testing.T) {
	plain := stripSpans(normalizeArgs(randomRecords(200, 51)))
	spanned := withSpans(plain, 52)
	a := writeColumnar(t, plain, ColumnarOptions{RecordsPerBlock: 64})
	b := writeColumnar(t, spanned, ColumnarOptions{RecordsPerBlock: 64})
	if len(a) >= len(b) {
		t.Fatalf("span columns free? spanless %d bytes vs spanned %d", len(a), len(b))
	}
	cr, err := NewColumnarReader(bytes.NewReader(a), int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cr.ScanViews(MatchAll(), 2, func(v *BlockView, rows []int) error {
		spans, err := v.Spans()
		if err != nil {
			return err
		}
		for _, sp := range spans {
			if sp != 0 {
				t.Error("nonzero span from span-less block")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestColumnarLegacyIndexParses pins forward compatibility of the footer
// index: a pre-extension payload (no trailing stats) and a payload with an
// unknown future extension version must both parse, yielding metas without
// stats — which the query planner must then refuse to prune by.
func TestColumnarLegacyIndexParses(t *testing.T) {
	legacy := func() *bytes.Buffer {
		var p bytes.Buffer
		putUvarint(&p, 1)   // one block
		putUvarint(&p, 100) // Len
		putUvarint(&p, 5)   // Count
		putVarint(&p, 10)   // MinTime
		putUvarint(&p, 5)   // MaxTime delta
		putVarint(&p, 0)    // MinRank
		putUvarint(&p, 3)   // MaxRank delta
		p.WriteByte(0xff)   // ClassMask
		p.WriteByte(0x03)   // DirMask
		return &p
	}
	metas, err := parseIndexPayload(legacy().Bytes(), 0, 100)
	if err != nil || len(metas) != 1 {
		t.Fatalf("legacy index: %v, %d metas", err, len(metas))
	}
	if metas[0].HasStats {
		t.Fatal("legacy index entry claims stats")
	}
	q := MatchAll().WithSpanRange(100, 200)
	if !q.MatchesBlock(metas[0]) {
		t.Fatal("stats-constrained query pruned a stats-less block")
	}

	future := legacy()
	future.WriteByte(0x7f) // unknown extension version
	future.WriteString("opaque future payload")
	metas, err = parseIndexPayload(future.Bytes(), 0, 100)
	if err != nil || len(metas) != 1 || metas[0].HasStats {
		t.Fatalf("future-versioned index: %v, %d metas", err, len(metas))
	}
}

// blockStatsRecords builds records in three well-separated regimes of
// offset, bytes and span so per-block stats can prune.
func blockStatsRecords() []Record {
	var recs []Record
	for blk := 0; blk < 3; blk++ {
		for i := 0; i < 64; i++ {
			n := blk*64 + i
			recs = append(recs, Record{
				Time: sim.Time(n) * sim.Time(sim.Millisecond), Dur: sim.Duration(100),
				Node: "n0", Rank: 0, Class: ClassSyscall,
				Name: "SYS_pwrite", Ret: "0", Path: "/pfs/f",
				Offset: int64(blk)*1_000_000 + int64(i)*100,
				Bytes:  int64(blk+1) * 1000,
				Span:   uint64(n + 1),
				Parent: uint64(n),
			})
		}
	}
	return recs
}

func TestColumnarStatsPushdown(t *testing.T) {
	recs := blockStatsRecords()
	data := writeColumnar(t, recs, ColumnarOptions{RecordsPerBlock: 64})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", cr.NumBlocks())
	}
	queries := []Query{
		MatchAll().WithOffsetRange(1_000_000, 1_999_999), // only block 1
		MatchAll().WithMinBytes(2500),                    // only block 2
		MatchAll().WithSpanRange(1, 40),                  // only block 0
		MatchAll().WithOffsetRange(0, 999_999).WithMinBytes(500),
	}
	for qi, q := range queries {
		var want []Record
		for i := range recs {
			if q.Matches(&recs[i]) {
				want = append(want, recs[i])
			}
		}
		s := cr.Scan(q, 2)
		var got []Record
		for {
			r, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r)
		}
		stats := s.Stats()
		s.Close()
		if !reflect.DeepEqual(normalizeArgs(want), normalizeArgs(got)) {
			t.Fatalf("query %d: scan/filter mismatch (%d vs %d records)", qi, len(want), len(got))
		}
		if stats.BlocksPrunedByStats == 0 {
			t.Fatalf("query %d: no blocks pruned by column stats (decoded %d of %d)",
				qi, stats.BlocksDecoded, stats.BlocksTotal)
		}
		if stats.BlocksDecoded+stats.BlocksPrunedByStats > stats.BlocksTotal {
			t.Fatalf("query %d: inconsistent stats %+v", qi, stats)
		}
	}
}
