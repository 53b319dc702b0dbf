package mpi_test

import (
	"testing"

	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
)

func TestWriteAtAllProducesSameEndStateAsIndependent(t *testing.T) {
	// Strided stripe-aligned pattern: collective and independent writes
	// must leave an identical file (size, digest, write count at the
	// stripe-unit granularity).
	const ranks, block, nobj = 4, 64 << 10, 4
	run := func(collective bool) (int64, uint64) {
		c := smallCluster(ranks)
		c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
			f, err := r.FileOpen(p, "/pfs/coll", mpi.ModeCreate|mpi.ModeWronly)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for i := 0; i < nobj; i++ {
				off := int64(i*ranks+r.RankID()) * block
				var werr error
				if collective {
					_, werr = f.WriteAtAll(p, off, block)
				} else {
					_, werr = f.WriteAt(p, off, block)
				}
				if werr != nil {
					t.Errorf("write: %v", werr)
				}
			}
			f.Close(p)
		})
		size, digest, _, ok := c.PFS.Snapshot("/pfs/coll")
		if !ok {
			t.Fatal("file missing")
		}
		return size, digest
	}
	s1, d1 := run(false)
	s2, d2 := run(true)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("end states differ: independent (%d,%x) vs collective (%d,%x)", s1, d1, s2, d2)
	}
}

func TestWriteAtAllFasterForSmallStridedBlocks(t *testing.T) {
	// The classic two-phase I/O result: at small strided blocks the
	// collective path beats independent writes by batching.
	const ranks, block, nobj = 8, 16 << 10, 8
	run := func(collective bool) sim.Duration {
		c := smallCluster(ranks)
		return c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
			f, _ := r.FileOpen(p, "/pfs/coll", mpi.ModeCreate|mpi.ModeWronly)
			for i := 0; i < nobj; i++ {
				off := int64(i*ranks+r.RankID()) * block
				if collective {
					f.WriteAtAll(p, off, block)
				} else {
					f.WriteAt(p, off, block)
				}
			}
			f.Close(p)
		})
	}
	indep := run(false)
	coll := run(true)
	if coll >= indep {
		t.Fatalf("collective (%v) not faster than independent (%v) at small strided blocks", coll, indep)
	}
}

func TestWriteAtAllZeroLengthRanks(t *testing.T) {
	// Ranks may contribute nothing; the collective must still complete.
	c := smallCluster(4)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		f, _ := r.FileOpen(p, "/pfs/zl", mpi.ModeCreate|mpi.ModeWronly)
		length := int64(0)
		if r.RankID() == 2 {
			length = 128 << 10
		}
		if _, err := f.WriteAtAll(p, int64(r.RankID())*(128<<10), length); err != nil {
			t.Errorf("rank %d: %v", r.RankID(), err)
		}
		f.Close(p)
	})
	size, _, _, ok := c.PFS.Snapshot("/pfs/zl")
	if !ok || size != 3*(128<<10) {
		t.Fatalf("size = %d ok=%v, want end of rank 2's extent", size, ok)
	}
}

func TestWriteAtAllAllZero(t *testing.T) {
	c := smallCluster(2)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		f, _ := r.FileOpen(p, "/pfs/empty", mpi.ModeCreate|mpi.ModeWronly)
		if _, err := f.WriteAtAll(p, 0, 0); err != nil {
			t.Errorf("rank %d: %v", r.RankID(), err)
		}
		f.Close(p)
	})
	size, _, _, _ := c.PFS.Snapshot("/pfs/empty")
	if size != 0 {
		t.Fatalf("size = %d", size)
	}
}

func TestWriteAtAllOnlyAggregatorsIssueSyscalls(t *testing.T) {
	const ranks = 8
	c := smallCluster(ranks)
	recorders := make([]*hookRecorder, ranks)
	for i := 0; i < ranks; i++ {
		recorders[i] = &hookRecorder{}
		c.World.Rank(i).Proc().Tracepoint().Attach(recorders[i])
	}
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		f, _ := r.FileOpen(p, "/pfs/agg", mpi.ModeCreate|mpi.ModeWronly)
		f.WriteAtAll(p, int64(r.RankID())*65536, 65536)
		f.Close(p)
	})
	aggs := c.World.CBNodes()
	for i, rec := range recorders {
		writes := 0
		for _, r := range rec.recs {
			if r.Name == "SYS_pwrite" {
				writes++
			}
		}
		if i < aggs && writes == 0 {
			t.Errorf("aggregator rank %d issued no writes", i)
		}
		if i >= aggs && writes != 0 {
			t.Errorf("non-aggregator rank %d issued %d writes", i, writes)
		}
	}
}

func TestWriteAtAllTracedAsCollective(t *testing.T) {
	c := smallCluster(2)
	h := &hookRecorder{}
	c.World.Rank(0).Tracepoint().Attach(h)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		f, _ := r.FileOpen(p, "/pfs/t", mpi.ModeCreate|mpi.ModeWronly)
		f.WriteAtAll(p, int64(r.RankID())*4096, 4096)
		f.Close(p)
	})
	if h.names()["MPI_File_write_at_all"] != 1 {
		t.Fatalf("collective call not traced: %v", h.names())
	}
	for _, r := range h.recs {
		if r.Name == "MPI_File_write_at_all" && r.Path != "/pfs/t" {
			t.Fatalf("record missing path: %+v", r)
		}
	}
}
