package mpi_test

import (
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

func smallCluster(nodes int) *cluster.Cluster {
	cfg := cluster.Small()
	cfg.ComputeNodes = nodes
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func TestCommRankAndSize(t *testing.T) {
	c := smallCluster(4)
	got := make([]int, 4)
	sizes := make([]int, 4)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		got[r.RankID()] = r.CommRank(p)
		sizes[r.RankID()] = r.CommSize(p)
	})
	for i := 0; i < 4; i++ {
		if got[i] != i || sizes[i] != 4 {
			t.Fatalf("rank %d: CommRank=%d CommSize=%d", i, got[i], sizes[i])
		}
	}
}

func TestSendRecv(t *testing.T) {
	c := smallCluster(2)
	var received int64
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		if r.RankID() == 0 {
			r.Send(p, 1, 42, 1<<20)
		} else {
			received = r.Recv(p, 0, 42)
		}
	})
	if received != 1<<20 {
		t.Fatalf("received = %d", received)
	}
}

func TestRecvMatchesTagOutOfOrder(t *testing.T) {
	c := smallCluster(2)
	var first, second int64
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		if r.RankID() == 0 {
			r.Send(p, 1, 1, 100)
			r.Send(p, 1, 2, 200)
		} else {
			// Receive in reverse tag order: matching must buffer.
			second = r.Recv(p, 0, 2)
			first = r.Recv(p, 0, 1)
		}
	})
	if first != 100 || second != 200 {
		t.Fatalf("first=%d second=%d", first, second)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := smallCluster(4)
	exitTimes := make([]sim.Time, 4)
	arrive := make([]sim.Time, 4)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		// Stagger arrivals: rank i sleeps i*10ms.
		p.Sleep(sim.Duration(r.RankID()) * 10 * sim.Millisecond)
		arrive[r.RankID()] = p.Now()
		r.Barrier(p)
		exitTimes[r.RankID()] = p.Now()
	})
	// No rank may exit before the last arrival.
	var lastArrive sim.Time
	for _, a := range arrive {
		if a > lastArrive {
			lastArrive = a
		}
	}
	for i, e := range exitTimes {
		if e < lastArrive {
			t.Fatalf("rank %d exited barrier at %v before last arrival %v", i, e, lastArrive)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	c := smallCluster(4)
	counts := make([]int, 4)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		for i := 0; i < 5; i++ {
			r.Barrier(p)
			counts[r.RankID()]++
		}
	})
	for i, n := range counts {
		if n != 5 {
			t.Fatalf("rank %d completed %d barriers", i, n)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 3; root++ {
		c := smallCluster(3)
		got := make([]any, 3)
		c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
			var data any
			if r.RankID() == root {
				data = "payload"
			}
			got[r.RankID()] = r.Bcast(p, root, 64, data)
		})
		for i, g := range got {
			if g != "payload" {
				t.Fatalf("root %d: rank %d got %v", root, i, g)
			}
		}
	}
}

func TestGather(t *testing.T) {
	c := smallCluster(4)
	var collected []any
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		res := r.Gather(p, 0, 8, r.RankID()*10)
		if r.RankID() == 0 {
			collected = res
		}
	})
	if len(collected) != 4 {
		t.Fatalf("collected %d", len(collected))
	}
	for i, v := range collected {
		if v != i*10 {
			t.Fatalf("collected[%d] = %v", i, v)
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	c := smallCluster(4)
	results := make([]int64, 4)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		results[r.RankID()] = r.AllreduceMax(p, int64(r.RankID()*7))
	})
	for i, v := range results {
		if v != 21 {
			t.Fatalf("rank %d allreduce = %d, want 21", i, v)
		}
	}
}

func TestFileOpenWriteClose(t *testing.T) {
	c := smallCluster(2)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		f, err := r.FileOpen(p, "/pfs/out", mpi.ModeCreate|mpi.ModeWronly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if n, err := f.WriteAt(p, int64(r.RankID())*1<<20, 1<<20); n != 1<<20 || err != nil {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	size, _, _, ok := c.PFS.Snapshot("/pfs/out")
	if !ok || size != 2<<20 {
		t.Fatalf("snapshot size=%d ok=%v", size, ok)
	}
}

// hookRecorder collects the records of the tracepoint it is attached to:
// library calls on a rank, syscalls on its process.
type hookRecorder struct{ recs []trace.Record }

func (h *hookRecorder) Enter(p *sim.Proc, name string)      {}
func (h *hookRecorder) Exit(p *sim.Proc, rec *trace.Record) { h.recs = append(h.recs, rec.Clone()) }
func (h *hookRecorder) names() map[string]int {
	m := make(map[string]int)
	for _, r := range h.recs {
		m[r.Name]++
	}
	return m
}

func TestLibHookSeesMPICalls(t *testing.T) {
	c := smallCluster(2)
	hooks := make([]*hookRecorder, 2)
	for i := 0; i < 2; i++ {
		hooks[i] = &hookRecorder{}
		c.World.Rank(i).Tracepoint().Attach(hooks[i])
	}
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		r.Init(p)
		r.Barrier(p)
		f, _ := r.FileOpen(p, "/pfs/x", mpi.ModeCreate|mpi.ModeWronly)
		f.WriteAt(p, 0, 64<<10)
		f.Close(p)
	})
	for i, h := range hooks {
		names := h.names()
		for _, want := range []string{"MPI_Init", "MPI_Barrier", "MPI_File_open", "MPI_File_write_at", "MPI_File_close"} {
			if names[want] != 1 {
				t.Fatalf("rank %d: %s count = %d (%v)", i, want, names[want], names)
			}
		}
	}
	// The write record must carry structured I/O fields.
	for _, r := range hooks[0].recs {
		if r.Name == "MPI_File_write_at" {
			if r.Bytes != 64<<10 || r.Class != trace.ClassMPI {
				t.Fatalf("write record: %+v", r)
			}
		}
	}
}

func TestMPIFileOpenEmitsFigure1Syscalls(t *testing.T) {
	c := smallCluster(1)
	sys := &hookRecorder{}
	c.World.Rank(0).Proc().Tracepoint().Attach(sys)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		r.Init(p)
		f, err := r.FileOpen(p, "/pfs/data", mpi.ModeCreate|mpi.ModeWronly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.Close(p)
	})
	var names []string
	for _, r := range sys.recs {
		names = append(names, r.Name)
	}
	// MPI_Init opens /etc/hosts; MPI_File_open does statfs64 + open + fcntl64
	// (the Figure 1 sequence).
	want := map[string]bool{"SYS_open": false, "SYS_statfs64": false, "SYS_fcntl64": false, "SYS_read": false, "SYS_close": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("syscall %s not observed; saw %v", n, names)
		}
	}
}

func TestWtimeReflectsClockSkew(t *testing.T) {
	cfg := cluster.Small()
	cfg.ComputeNodes = 2
	cfg.MaxSkew = 100 * sim.Millisecond
	cfg.MaxDrift = 0
	c := cluster.New(cfg)
	times := make([]sim.Time, 2)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		r.Barrier(p)
		times[r.RankID()] = r.Wtime(p)
	})
	// With different skews the two Wtime readings should differ even though
	// barrier exit is nearly simultaneous in global time.
	if times[0] == times[1] {
		t.Fatal("skewed clocks read identical times (suspicious)")
	}
}

func TestRunToCompletionElapsed(t *testing.T) {
	c := smallCluster(2)
	elapsed := c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		p.Sleep(3 * sim.Second)
	})
	if elapsed < 3*sim.Second {
		t.Fatalf("elapsed = %v, want >= 3s", elapsed)
	}
}

func TestDetachLibHooks(t *testing.T) {
	c := smallCluster(1)
	h := &hookRecorder{}
	c.World.Rank(0).Tracepoint().Attach(h)
	c.World.Rank(0).Tracepoint().Detach(h)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		r.Barrier(p)
	})
	if len(h.recs) != 0 {
		t.Fatal("detached hook saw records")
	}
}

func TestLocalFSPreloaded(t *testing.T) {
	c := smallCluster(1)
	var err error
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		_, err = r.Proc().Stat(p, "/etc/hosts")
	})
	if err != nil {
		t.Fatalf("/etc/hosts missing: %v", err)
	}
	_ = vfs.ErrNotExist
}
