package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"iotaxo/internal/framework"
	"iotaxo/internal/golden"
	"iotaxo/internal/multilayer"
	"iotaxo/internal/trace"
)

// digestSource folds every field of every record of src, in order, into
// one SHA-256 and returns the record count and the hex digest.
func digestSource(t *testing.T, src trace.Source) (int, string) {
	t.Helper()
	h := sha256.New()
	n, err := trace.Copy(trace.SinkFunc(func(r *trace.Record) error {
		fmt.Fprintf(h, "%d|%d|%q|%d|%d|%d|%q|%q|%q|%q|%d|%d|%d|%d|%d|%d\n",
			r.Time, r.Dur, r.Node, r.Rank, r.PID, r.Class, r.Name, r.Args, r.Ret,
			r.Path, r.Offset, r.Bytes, r.UID, r.GID, r.Span, r.Parent)
		return nil
	}), src)
	if err != nil {
		t.Fatal(err)
	}
	return int(n), fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecordDigestGolden pins the emitted records byte for byte: for every
// registered framework on every registered workload at the matrix smoke
// scale, the count and SHA-256 of each stream Session.Sources returns,
// plus the net, PFS and disk streams of a directly attached multi-layer
// session, which Sources does not expose.
// Regenerate with `go test ./internal/harness -run TestRecordDigestGolden
// -update`, and only for a deliberate change to what a tracer records.
func TestRecordDigestGolden(t *testing.T) {
	o := MatrixSmokeOptions()
	sc := o.scaleFor(o.BlockSizes[0])
	var b strings.Builder
	line := func(label string, i int, src trace.Source) {
		n, sum := digestSource(t, src)
		fmt.Fprintf(&b, "%s source %d: %d records sha256 %s\n", label, i, n, sum)
	}
	for _, w := range MatrixWorkloads() {
		for _, fw := range framework.All() {
			s := fw.Attach(o.newCluster())
			if _, err := s.Run(w.Spec(sc)); err != nil {
				t.Fatalf("%s on %s: %v", fw.Name(), w.Name(), err)
			}
			for i, src := range s.Sources() {
				line(fw.Name()+" / "+w.Name(), i, src)
			}
		}
		c := o.newCluster()
		ml := multilayer.Attach(c)
		framework.RunWorkload(c, w.Spec(sc))
		for l := multilayer.LayerNet; l <= multilayer.LayerDisk; l++ {
			line("multilayer layers / "+w.Name(), int(l), ml.LayerSource(l))
		}
	}
	golden.Check(t, "records.golden", b.String())
}
