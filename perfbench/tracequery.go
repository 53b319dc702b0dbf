package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"iotaxo/internal/analysis"
	"iotaxo/internal/cluster"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// traceQuery works the trace plane on a fixed Multi-Layer trace: a v1→v2
// conversion, a seeded mix of narrow and broad indexed queries, and one
// cross-layer slicing pass. The simulator is idle during the timed phase.
type traceQuery struct {
	src   []trace.Record // the simulated trace, the reference for every check
	v1    []byte         // src encoded as v1 with spans
	first []byte         // the first unit's v2 encoding
	rng   *rand.Rand

	tmin, tmax sim.Time // record time range
	maxRank    int
	maxSpan    uint64
	maxOffset  int64

	decode, encode []float64 // per unit, seconds
	slices         []float64
	conservation   float64
	queries        []querySample
}

const fnvOffset = 14695981039346656037

// querySample is one timed query.
type querySample struct {
	kind     string
	broad    bool
	open     time.Duration
	total    time.Duration // from opening the reader to the last matched record
	stats    trace.ScanStats
	inBlocks int64 // records in the blocks the index admitted
}

func (t *traceQuery) setup(b *bench) error {
	cfg := cluster.Default()
	cfg.ComputeNodes = b.cfg.size.queryRanks
	cfg.Seed = b.cfg.seed
	w, ok := workload.ByName("checkpoint-restart")
	if !ok {
		return fmt.Errorf("checkpoint-restart is not registered")
	}
	recs, c, res, err := multiLayerRun(b, cfg, w.Spec(workload.WeakScale(64<<10, b.cfg.size.queryPerRank)))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := b.call("trace.BinaryWriter", func() error {
		bw := trace.NewBinaryWriter(&buf, trace.BinaryOptions{Spans: true})
		if err := trace.WriteAll(bw, recs); err != nil {
			return err
		}
		return bw.Close()
	}); err != nil {
		return fmt.Errorf("v1 encode: %w", err)
	}
	t.src, t.v1 = recs, buf.Bytes()
	t.rng = rand.New(rand.NewSource(b.cfg.seed))
	t.tmin, t.tmax = recs[0].Time, recs[0].Time
	for i := range recs {
		r := &recs[i]
		t.tmin, t.tmax = min(t.tmin, r.Time), max(t.tmax, r.Time)
		t.maxRank, t.maxSpan, t.maxOffset = max(t.maxRank, r.Rank), max(t.maxSpan, r.Span), max(t.maxOffset, r.Offset)
	}

	st := simStats(c)
	st["bytes"] = float64(res.Bytes + res.BytesRead)
	st["records"] = float64(len(recs))
	st["v1_bytes"] = float64(len(t.v1))
	if err := b.checkStats("input", st); err != nil {
		return err
	}
	if !b.cfg.trace {
		return nil
	}
	counts, excl, err := layerCounts(b, recs)
	if err != nil {
		return err
	}
	if err := b.checkStats("layers", counts); err != nil {
		return err
	}
	setLayerMetrics(b, counts, excl)
	return nil
}

func (t *traceQuery) unit(b *bench) time.Duration {
	var timed time.Duration
	var recs []trace.Record
	d, err := b.call("trace.BinaryReader", func() error {
		var err error
		recs, err = trace.NewBinaryReader(bytes.NewReader(t.v1)).ReadAll()
		return err
	})
	timed += d
	t.decode = append(t.decode, d.Seconds())
	if err != nil {
		b.op("v1 decode", err)
		return timed
	}
	var v2 bytes.Buffer
	d, err = b.call("trace.ColumnarWriter", func() error {
		cw := trace.NewColumnarWriter(&v2, trace.ColumnarOptions{})
		if err := trace.WriteAll(cw, recs); err != nil {
			return err
		}
		return cw.Close()
	})
	timed += d
	t.encode = append(t.encode, d.Seconds())
	if err == nil {
		err = t.checkConversion(b, v2.Bytes())
	}
	b.op("v1 to v2 conversion", err)
	if err != nil {
		return timed
	}

	for _, q := range t.queryMix(b.cfg.size.queriesPerKind) {
		s, err := t.runQuery(b, v2.Bytes(), q)
		timed += s.total
		b.op("query "+q.kind, err)
		t.queries = append(t.queries, s)
	}

	var sl *analysis.Slice
	d, _ = b.call("analysis.SliceRecords", func() error { sl = analysis.SliceRecords(recs, 0); return nil })
	timed += d
	t.slices = append(t.slices, d.Seconds())
	t.conservation = conservation(sl)
	return timed
}

// checkConversion verifies that the first unit's v2 file decodes back to
// the simulated records and that every later unit writes the same bytes.
func (t *traceQuery) checkConversion(b *bench, v2 []byte) error {
	if t.first != nil {
		if !bytes.Equal(v2, t.first) {
			return fmt.Errorf("v2 encoding differs from the first unit's")
		}
		return nil
	}
	back, err := trace.NewColumnarSource(bytes.NewReader(v2)).ReadAll()
	if err != nil {
		return fmt.Errorf("decode v2: %w", err)
	}
	if len(back) != len(t.src) {
		return fmt.Errorf("v2 holds %d records, source has %d", len(back), len(t.src))
	}
	for i := range back {
		if !sameRecord(&back[i], &t.src[i]) {
			return fmt.Errorf("record %d differs after v1→v2: %+v vs %+v", i, back[i], t.src[i])
		}
	}
	t.first = append([]byte(nil), v2...)
	return b.checkStats("v2", map[string]float64{"bytes": float64(len(v2))})
}

func sameRecord(a, b *trace.Record) bool {
	if len(a.Args) == 0 && len(b.Args) == 0 {
		x, y := *a, *b
		x.Args, y.Args = nil, nil
		return reflect.DeepEqual(x, y)
	}
	return reflect.DeepEqual(*a, *b)
}

// namedQuery is one query of the mix; summary queries fold a
// ColumnarSummary instead of materializing records.
type namedQuery struct {
	kind    string
	broad   bool
	summary bool
	q       trace.Query
}

// queryMix draws the next unit's queries from the seeded generator: narrow
// kinds the index can prune (rank range, time window, span range) and broad
// kinds that decode most blocks (class set, min bytes, offset range, full
// summary).
func (t *traceQuery) queryMix(perKind int) []namedQuery {
	r := t.rng
	all := trace.MatchAll()
	window := t.tmax - t.tmin
	classes := []trace.EventClass{trace.ClassMPI, trace.ClassSyscall, trace.ClassFSOp, trace.ClassNetMsg, trace.ClassPFSOp, trace.ClassDiskIO}
	var out []namedQuery
	for i := 0; i < perKind; i++ {
		rank := r.Intn(t.maxRank + 1)
		at := t.tmin + sim.Time(r.Int63n(int64(window)+1))
		sp := uint64(r.Int63n(int64(t.maxSpan))) + 1
		r.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		off := r.Int63n(t.maxOffset/2 + 1)
		out = append(out,
			namedQuery{kind: "ranks", q: all.WithRanks(rank, rank+1)},
			namedQuery{kind: "window", q: all.WithWindow(at, at+window/200)},
			namedQuery{kind: "spans", q: all.WithSpanRange(sp, sp+4096)},
			namedQuery{kind: "classes", broad: true, q: all.WithClasses(classes[:2]...)},
			namedQuery{kind: "min-bytes", broad: true, q: all.WithMinBytes(int64(1) << (12 + r.Intn(5)))},
			namedQuery{kind: "offsets", broad: true, q: all.WithOffsetRange(off, off+t.maxOffset/2)},
			namedQuery{kind: "summary", broad: true, summary: true, q: all},
		)
	}
	return out
}

// runQuery times one query from opening the reader to its last match and
// checks its match count and checksum against a brute-force filter of the
// source records.
func (t *traceQuery) runQuery(b *bench, v2 []byte, nq namedQuery) (querySample, error) {
	s := querySample{kind: nq.kind, broad: nq.broad}
	workers := runtime.GOMAXPROCS(0)
	var (
		cr  *trace.ColumnarReader
		n   int64
		got uint64 = fnvOffset
		sum *analysis.CallSummary
	)
	start := b.tr.begin("query." + nq.kind)
	_, err := b.call("trace.NewColumnarReader", func() error {
		var err error
		cr, err = trace.NewColumnarReader(bytes.NewReader(v2), int64(len(v2)))
		return err
	})
	s.open = time.Since(start)
	if err == nil && nq.summary {
		_, err = b.call("analysis.ColumnarSummary", func() error {
			var err error
			sum, s.stats, err = analysis.ColumnarSummary(cr, nq.q, workers)
			return err
		})
	} else if err == nil {
		_, err = b.call("ColumnarReader.Scan", func() error {
			sc := cr.Scan(nq.q, workers)
			for {
				rec, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				n++
				got = hashRecord(got, &rec)
			}
			s.stats = sc.Stats()
			return nil
		})
	}
	s.total = b.tr.end(start)
	if err != nil {
		return s, err
	}
	for _, m := range cr.Index() {
		if nq.q.MatchesBlock(m) {
			s.inBlocks += int64(m.Count)
		}
	}

	// Brute force over the source records.
	var want int64
	wantHash := uint64(fnvOffset)
	wantSum := analysis.NewCallSummary()
	for i := range t.src {
		r := &t.src[i]
		if nq.q.Matches(r) {
			want++
			wantHash = hashRecord(wantHash, r)
			wantSum.Add(r)
		}
	}
	if nq.summary {
		if !reflect.DeepEqual(sum.Rows(), wantSum.Rows()) {
			return s, fmt.Errorf("summary differs from a brute-force filter")
		}
		return s, nil
	}
	if n != want || s.stats.RecordsMatched != want {
		return s, fmt.Errorf("%d records matched (scan stats %d), brute force %d", n, s.stats.RecordsMatched, want)
	}
	if got != wantHash {
		return s, fmt.Errorf("matched records differ from a brute-force filter")
	}
	return s, nil
}

// hashRecord folds the fields a query returns into an FNV-1a style
// running checksum, without allocating.
func hashRecord(h uint64, r *trace.Record) uint64 {
	const prime = 1099511628211
	for _, v := range [...]uint64{uint64(r.Time), uint64(r.Dur), uint64(r.Rank), uint64(r.Class),
		uint64(r.Offset), uint64(r.Bytes), r.Span, r.Parent} {
		h = (h ^ v) * prime
	}
	for _, s := range [...]string{r.Node, r.Name, r.Path, r.Ret} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	return h
}

// layers derives the trace and analysis per-layer metrics from the timed
// units, and the simulator ones from the set-up simulation.
func (t *traceQuery) layers(b *bench) error {
	mb := float64(len(t.v1)) / 1e6
	dec, enc := median(t.decode), median(t.encode)
	if dec > 0 && enc > 0 {
		b.layer["trace.v1_decode_mb_s"] = mb / dec
		b.layer["trace.v2_encode_mb_s"] = mb / enc
		b.layer["convert_mb_s"] = mb / (dec + enc)
	}
	b.layer["trace.v2_bytes_per_record"] = float64(len(t.first)) / float64(len(t.src))
	var lat, opens []float64
	var total, decoded, matched, inBlocks, broadRecs int64
	var broadTime float64
	for _, s := range t.queries {
		lat = append(lat, s.total.Seconds()*1e3)
		opens = append(opens, s.open.Seconds()*1e3)
		total += int64(s.stats.BlocksTotal)
		decoded += int64(s.stats.BlocksDecoded)
		matched += s.stats.RecordsMatched
		inBlocks += s.inBlocks
		if s.broad {
			broadRecs += s.inBlocks
			broadTime += s.total.Seconds()
		}
	}
	b.layer["query_samples"] = float64(len(lat))
	b.layer["query_p50_ms"] = median(lat)
	b.layer["query_p95_ms"] = quantile(lat, tailQuantile(len(lat), 0.95))
	b.layer["trace.v2_open_ms"] = median(opens)
	if total > 0 {
		b.layer["trace.blocks_decoded_frac"] = float64(decoded) / float64(total)
	}
	if inBlocks > 0 {
		b.layer["trace.scan_match_ratio"] = float64(matched) / float64(inBlocks)
	}
	if broadTime > 0 {
		b.layer["trace.scan_mrec_s"] = float64(broadRecs) / broadTime / 1e6
	}
	sl := median(t.slices)
	b.layer["slice_s"] = sl
	if sl > 0 {
		b.layer["analysis.slice_records_per_s"] = float64(len(t.src)) / sl
	}
	b.layer["analysis.slice_conservation"] = t.conservation

	st := b.first["input"]
	b.layer["sim.spans"] = st["spans"]
	b.layer["sim.spawned"] = st["spawned"]
	b.layer["sim.virtual_s"] = st["virtual_ns"] / 1e9
	b.layer["cluster.new_s"] = median(b.tr.perRoot("setup", "cluster.New"))
	if st["spans"] > 0 {
		b.layer["sim.host_ns_per_span"] = median(b.tr.perRoot("setup", "multilayer.RunWorkload")) * 1e9 / st["spans"]
	}
	return nil
}

// tailQuantile is q, or the highest quantile of n samples that still has
// ten samples beyond it.
func tailQuantile(n int, q float64) float64 {
	if n == 0 {
		return q
	}
	return max(0.5, min(q, 1-10/float64(n)))
}
