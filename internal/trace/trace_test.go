package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

func sampleRecord() Record {
	return Record{
		Time:  39587*sim.Second + 92996*sim.Microsecond,
		Dur:   34 * sim.Microsecond,
		Node:  "host13.lanl.gov",
		Rank:  7,
		PID:   10378,
		Class: ClassSyscall,
		Name:  "SYS_open",
		Args:  []string{`"/etc/hosts"`, "0", "438"},
		Ret:   "3",
		Path:  "/etc/hosts",
	}
}

func TestFormatLocalTimeMatchesFigure1Style(t *testing.T) {
	// 10:59:47.092996 from Figure 1.
	ts := sim.Time((10*3600+59*60+47)*int64(sim.Second) + 92996*int64(sim.Microsecond))
	if got := FormatLocalTime(ts); got != "10:59:47.092996" {
		t.Fatalf("got %q", got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf, "host13.lanl.gov", 7, 10378)
	in := sampleRecord()
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `SYS_open("/etc/hosts", 0, 438) = 3 <0.000034>`) {
		t.Fatalf("unexpected text:\n%s", out)
	}
	recs, err := NewTextReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	got := recs[0]
	if got.Name != in.Name || got.Ret != in.Ret || got.Dur != in.Dur {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
	if got.Node != "host13.lanl.gov" || got.Rank != 7 || got.PID != 10378 {
		t.Fatalf("header context lost: %+v", got)
	}
	if got.Path != "/etc/hosts" {
		t.Fatalf("path not inferred: %q", got.Path)
	}
	if got.Class != ClassSyscall {
		t.Fatalf("class = %v", got.Class)
	}
}

func TestTextParserInfersIOFields(t *testing.T) {
	src := `# node=n1 rank=2 pid=55
00:00:01.000000 SYS_pwrite(3, 65536, 32768) = 32768 <0.000100>
00:00:02.000000 MPI_File_write_at(0, 1048576, 4096) = 4096 <0.000200>
00:00:03.000000 MPI_Barrier(92) = 0 <0.001000>
`
	recs, err := NewTextReader(strings.NewReader(src)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Offset != 65536 || recs[0].Bytes != 32768 {
		t.Fatalf("pwrite fields: %+v", recs[0])
	}
	if recs[1].Class != ClassMPI || recs[1].Offset != 1048576 || recs[1].Bytes != 4096 {
		t.Fatalf("mpi fields: %+v", recs[1])
	}
	if recs[2].IsIO() {
		t.Fatal("barrier classified as IO")
	}
}

func TestTextParserErrors(t *testing.T) {
	bad := []string{
		"garbage line without timestamp",
		"00:00:01.000000 no_parens = 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\" = 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\") 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\") = 0",
	}
	for _, line := range bad {
		_, err := NewTextReader(strings.NewReader(line + "\n")).ReadAll()
		if err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestTextQuotedCommaArgs(t *testing.T) {
	src := "00:00:01.000000 SYS_open(\"/a,b(c).txt\", 0, 438) = 3 <0.000010>\n"
	recs, err := NewTextReader(strings.NewReader(src)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Path != "/a,b(c).txt" {
		t.Fatalf("path = %q", recs[0].Path)
	}
	if len(recs[0].Args) != 3 {
		t.Fatalf("args = %v", recs[0].Args)
	}
}

func randomRecord(rng *rand.Rand) Record {
	names := []string{"SYS_write", "SYS_read", "MPI_Barrier", "MPI_File_write_at", "VFS_write", "libc_puts"}
	var args []string
	for i := 0; i < rng.Intn(4); i++ {
		args = append(args, string(rune('a'+rng.Intn(26))))
	}
	return Record{
		Time:   sim.Time(rng.Int63n(1e15)),
		Dur:    sim.Duration(rng.Int63n(1e10)),
		Node:   "node" + string(rune('0'+rng.Intn(10))),
		Rank:   rng.Intn(64) - 1,
		PID:    rng.Intn(1 << 15),
		Class:  EventClass(rng.Intn(int(numClasses))),
		Name:   names[rng.Intn(len(names))],
		Args:   args,
		Ret:    "0",
		Path:   "/scratch/file",
		Offset: rng.Int63n(1 << 40),
		Bytes:  rng.Int63n(1 << 30),
		UID:    rng.Intn(1 << 16),
		GID:    rng.Intn(1 << 16),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var in []Record
	for i := 0; i < 1000; i++ {
		in = append(in, randomRecord(rng))
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{Compress: compress, RecordsPerBlock: 64})
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := NewBinaryReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if len(out) != len(in) {
			t.Fatalf("compress=%v: got %d records, want %d", compress, len(out), len(in))
		}
		for i := range in {
			a, b := in[i], out[i]
			// Args nil vs empty slice normalization.
			if len(a.Args) == 0 {
				a.Args = nil
			}
			if len(b.Args) == 0 {
				b.Args = nil
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("compress=%v: record %d mismatch:\n%+v\n%+v", compress, i, a, b)
			}
		}
	}
}

func TestBinaryCompressionShrinksRepetitiveTraces(t *testing.T) {
	rec := sampleRecord()
	var plain, comp bytes.Buffer
	wp := NewBinaryWriter(&plain, BinaryOptions{})
	wc := NewBinaryWriter(&comp, BinaryOptions{Compress: true})
	for i := 0; i < 2000; i++ {
		if err := wp.Write(&rec); err != nil {
			t.Fatal(err)
		}
		if err := wc.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	wp.Close()
	wc.Close()
	if comp.Len() >= plain.Len()/2 {
		t.Fatalf("compression ineffective: %d vs %d", comp.Len(), plain.Len())
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{RecordsPerBlock: 8})
	rec := sampleRecord()
	for i := 0; i < 32; i++ {
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data := buf.Bytes()
	// Flip a byte in the middle of the stream (inside some block payload).
	data[len(data)/2] ^= 0xFF
	_, err := NewBinaryReader(bytes.NewReader(data)).ReadAll()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBinaryDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{RecordsPerBlock: 8})
	rec := sampleRecord()
	for i := 0; i < 32; i++ {
		w.Write(&rec)
	}
	w.Close()
	data := buf.Bytes()[:buf.Len()-5]
	_, err := NewBinaryReader(bytes.NewReader(data)).ReadAll()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// mkBlocks encodes `blocks` v1 blocks of `perBlock` random records each.
func mkBlocks(t *testing.T, blocks, perBlock int, compress bool) []byte {
	t.Helper()
	recs := randomRecords(blocks*perBlock, 37)
	var buf bytes.Buffer
	if err := WriteAll(NewBinaryWriter(&buf, BinaryOptions{Compress: compress, RecordsPerBlock: perBlock}), recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockOffsets walks the frame headers and returns each block's start.
func blockOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	pos := 9 // magic + flags
	for pos < len(data) {
		offs = append(offs, pos)
		plen := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 8 + plen
	}
	return offs
}

// Mid-stream CRC corruption must yield every record of the blocks before
// the bad one, then ErrCorrupt.
func TestReadersMidStreamCRCCorruption(t *testing.T) {
	const perBlock = 16
	data := mkBlocks(t, 4, perBlock, false)
	offs := blockOffsets(t, data)
	if len(offs) != 4 {
		t.Fatalf("expected 4 blocks, found %d", len(offs))
	}
	// Flip a byte inside block 2's payload.
	bad := append([]byte(nil), data...)
	bad[offs[2]+8] ^= 0xFF
	t.Run("serial", func(t *testing.T) {
		recs, err := NewBinaryReader(bytes.NewReader(bad)).ReadAll()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(recs) != 2*perBlock {
			t.Fatalf("got %d records before the corrupt block, want %d", len(recs), 2*perBlock)
		}
	})
}

// ... and truncation mid-block behaves the same way.
func TestReadersMidStreamTruncation(t *testing.T) {
	const perBlock = 16
	data := mkBlocks(t, 4, perBlock, true)
	offs := blockOffsets(t, data)
	// Cut the stream in the middle of block 3's payload.
	cut := data[:offs[3]+10]
	t.Run("serial", func(t *testing.T) {
		recs, err := NewBinaryReader(bytes.NewReader(cut)).ReadAll()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(recs) != 3*perBlock {
			t.Fatalf("got %d records before truncation, want %d", len(recs), 3*perBlock)
		}
	})
}

// A block header may claim up to 1 GiB; the reader must not allocate that
// before the payload bytes actually arrive. The 17-byte stream is the magic,
// flags 0, and one header declaring a 2^30-byte block with CRC 0.
func TestBinaryHugeBlockHeaderBoundedAlloc(t *testing.T) {
	data := append(append([]byte(nil), binaryMagic[:]...), 0)
	data = binary.LittleEndian.AppendUint32(data, 1<<30)
	data = binary.LittleEndian.AppendUint32(data, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewBinaryReader(bytes.NewReader(data)).ReadAll()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated block") {
		t.Fatalf("err = %v, want ErrCorrupt truncated block", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %.1f MiB, want < 1 MiB", len(data), float64(alloc)/(1<<20))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := NewBinaryReader(strings.NewReader("NOTATRACEFILE")).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{})
	w.Close()
	recs, err := NewBinaryReader(&buf).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestBinaryFlagsExposed(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{Compress: true, Anonymized: true})
	rec := sampleRecord()
	w.Write(&rec)
	w.Close()
	r := NewBinaryReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Flags()&FlagCompressed == 0 || r.Flags()&FlagAnonymized == 0 {
		t.Fatalf("flags = %b", r.Flags())
	}
}

// Property: binary encode/decode is the identity on records.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomRecord(rng)
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{})
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Close()
		out, err := NewBinaryReader(&buf).ReadAll()
		if err != nil || len(out) != 1 {
			return false
		}
		a, b := in, out[0]
		if len(a.Args) == 0 {
			a.Args = nil
		}
		if len(b.Args) == 0 {
			b.Args = nil
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: text writer output always parses back with matching name/ret/dur
// for well-formed records.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomRecord(rng)
		in.Time = sim.Time(rng.Int63n(int64(24 * sim.Hour)))
		// Text format carries microsecond resolution only.
		in.Time = in.Time / 1000 * 1000
		in.Dur = in.Dur / 1000 * 1000
		var buf bytes.Buffer
		w := NewTextWriter(&buf, in.Node, in.Rank, in.PID)
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Flush()
		out, err := NewTextReader(&buf).ReadAll()
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		return got.Name == in.Name && got.Ret == in.Ret &&
			got.Dur == in.Dur && got.Time == in.Time &&
			got.Node == in.Node && got.Rank == in.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for c := EventClass(0); c < numClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("class %v round trip: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sampleRecord()
	c := r.Clone()
	c.Args[0] = "mutated"
	if r.Args[0] == "mutated" {
		t.Fatal("Clone shares Args")
	}
}

func TestEstimatedTextSizePositive(t *testing.T) {
	r := sampleRecord()
	if r.EstimatedTextSize() <= 0 {
		t.Fatal("estimate not positive")
	}
}

func TestTextReaderEOFBehavior(t *testing.T) {
	r := NewTextReader(strings.NewReader(""))
	_, err := r.Next()
	if err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestReadAutoDetectsBoth(t *testing.T) {
	rec := sampleRecord()
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin, BinaryOptions{})
	bw.Write(&rec)
	bw.Close()
	recs, format, err := ReadAuto(&bin)
	if err != nil || format != FormatBinary || len(recs) != 1 {
		t.Fatalf("binary auto: %v %v %d", err, format, len(recs))
	}

	var txt bytes.Buffer
	tw := NewTextWriter(&txt, "n", 0, 1)
	tw.Write(&rec)
	tw.Flush()
	recs, format, err = ReadAuto(&txt)
	if err != nil || format != FormatText || len(recs) != 1 {
		t.Fatalf("text auto: %v %v %d", err, format, len(recs))
	}
}

func TestReadAutoEmpty(t *testing.T) {
	_, format, _ := ReadAuto(strings.NewReader(""))
	if format != FormatUnknown {
		t.Fatalf("format = %v", format)
	}
	if FormatUnknown.String() != "unknown" || FormatText.String() != "text" || FormatBinary.String() != "binary" {
		t.Fatal("format strings")
	}
}

// Property: the binary reader never panics on arbitrary input; it returns
// records or an error.
func TestBinaryReaderFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %x", data)
			}
		}()
		NewBinaryReader(bytes.NewReader(data)).ReadAll()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Also with a valid header followed by garbage.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{})
	rec := sampleRecord()
	w.Write(&rec)
	w.Close()
	data := append(buf.Bytes(), 0xde, 0xad, 0xbe, 0xef, 0x01)
	if _, err := NewBinaryReader(bytes.NewReader(data)).ReadAll(); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// Property: the text parser never panics on arbitrary lines.
func TestTextReaderFuzzProperty(t *testing.T) {
	f := func(line string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %q", line)
			}
		}()
		NewTextReader(strings.NewReader(line + "\n")).ReadAll()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
