package harness

import (
	"bytes"
	"testing"

	"iotaxo/internal/lanltrace"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// columnarSizeRatioFloor is the v2 format's size bar: over every registered
// workload's real LANL-Trace stream, v2 must be at least this many times
// smaller than v1.
const columnarSizeRatioFloor = 3.0

// TestRegistryColumnarSizeRatio runs every registered workload under
// LANL-Trace at the smoke cluster shape, with 64 KB blocks over 4 MB per
// rank so each stream holds thousands of records (enough for the columnar
// dictionaries to amortize), and encodes each stream with both codecs. v2
// must be smaller than v1 on every workload and at least
// columnarSizeRatioFloor times smaller in total.
func TestRegistryColumnarSizeRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry codec comparison")
	}
	o := MatrixSmokeOptions()
	o.PerRankBytes = 4 << 20
	o.BlockSizes = []int64{64 << 10}
	var v1Total, v2Total int
	for _, w := range workload.All() {
		sess := o.lanlFramework().Attach(o.newCluster())
		if _, err := sess.Run(w.Spec(o.scaleFor(o.BlockSizes[0]))); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		recs := sess.(interface{ Report() *lanltrace.Report }).Report().AllRecords()
		if len(recs) == 0 {
			t.Fatalf("workload %s produced no records", w.Name())
		}
		// The comparison runs on the classic record corpus. Causal spans are
		// stripped: v1 only carries them behind an opt-in flag, so leaving
		// them in would charge the span columns to v2 alone and skew the
		// ratio.
		for i := range recs {
			recs[i].Span, recs[i].Parent = 0, 0
		}
		var v1, v2 bytes.Buffer
		if err := trace.WriteAll(trace.NewBinaryWriter(&v1, trace.BinaryOptions{}), recs); err != nil {
			t.Fatalf("%s: v1 encode: %v", w.Name(), err)
		}
		if err := trace.WriteAll(trace.NewColumnarWriter(&v2, trace.ColumnarOptions{}), recs); err != nil {
			t.Fatalf("%s: v2 encode: %v", w.Name(), err)
		}
		if v2.Len() >= v1.Len() {
			t.Errorf("workload %s: v2 (%d bytes) not smaller than v1 (%d bytes)", w.Name(), v2.Len(), v1.Len())
		}
		v1Total += v1.Len()
		v2Total += v2.Len()
	}
	ratio := float64(v1Total) / float64(v2Total)
	if ratio < columnarSizeRatioFloor {
		t.Errorf("v1/v2 size ratio %.3f below the %.1fx floor (v1 %d bytes, v2 %d bytes)",
			ratio, columnarSizeRatioFloor, v1Total, v2Total)
	}
	t.Logf("v1/v2 size ratio %.3f (v1 %d bytes, v2 %d bytes)", ratio, v1Total, v2Total)
}
