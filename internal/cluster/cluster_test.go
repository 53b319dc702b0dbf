package cluster_test

import (
	"slices"
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/pfs"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/tracefs"
	"iotaxo/internal/vfs"
	"iotaxo/internal/workload"
)

func TestNodeNamingMatchesFigure1Style(t *testing.T) {
	if got := cluster.NodeName(12); got != "host13.lanl.gov" {
		t.Fatalf("NodeName(12) = %q", got)
	}
}

func TestDefaultMatchesPaperTestbed(t *testing.T) {
	cfg := cluster.Default()
	if cfg.ComputeNodes != 32 {
		t.Fatalf("compute nodes = %d, want 32 (the paper: 32 processors)", cfg.ComputeNodes)
	}
	if cfg.PFS.Servers*cfg.PFS.Array.Disks != 252 {
		t.Fatalf("drives = %d, want 252", cfg.PFS.Servers*cfg.PFS.Array.Disks)
	}
	if cfg.PFS.StripeUnit != 64<<10 {
		t.Fatalf("stripe = %d, want 64KB", cfg.PFS.StripeUnit)
	}
}

func TestMountsResolve(t *testing.T) {
	c := cluster.New(cluster.Small())
	k := c.Kernels[0]
	fs, err := k.Resolve("/pfs/some/file")
	if err != nil || fs.FSName() != "panfs" {
		t.Fatalf("pfs resolve: %v %v", fs, err)
	}
	fs, err = k.Resolve("/etc/hosts")
	if err != nil || fs.FSName() != "ext3" {
		t.Fatalf("local resolve: %v %v", fs, err)
	}
}

func TestClockBoundsRespected(t *testing.T) {
	cfg := cluster.Small()
	cfg.MaxSkew = 50 * sim.Millisecond
	cfg.MaxDrift = 10e-6
	c := cluster.New(cfg)
	for i, k := range c.Kernels {
		skew := k.Clock().SkewAt(0)
		if skew > 50*sim.Millisecond || skew < -50*sim.Millisecond {
			t.Fatalf("node %d skew %v out of bounds", i, skew)
		}
	}
}

func TestRanksPerNode(t *testing.T) {
	cfg := cluster.Small()
	cfg.ComputeNodes = 2
	cfg.RanksPerNode = 3
	c := cluster.New(cfg)
	if c.Ranks() != 6 {
		t.Fatalf("ranks = %d, want 6", c.Ranks())
	}
	// Ranks 0-2 share node 0's kernel.
	if c.World.Rank(0).Node() != c.World.Rank(2).Node() {
		t.Fatal("ranks not packed per node")
	}
	if c.World.Rank(0).Node() == c.World.Rank(3).Node() {
		t.Fatal("rank 3 should live on node 1")
	}
}

func TestTotalRanksCapsLastNode(t *testing.T) {
	cfg := cluster.Small()
	cfg.ComputeNodes = 3
	cfg.RanksPerNode = 4
	cfg.TotalRanks = 10 // last node hosts only 2 ranks
	c := cluster.New(cfg)
	if c.Ranks() != 10 {
		t.Fatalf("ranks = %d, want 10", c.Ranks())
	}
	// Block placement: ranks 0-3 on node 0, 8-9 on node 2.
	if c.World.Rank(0).Node() != c.World.Rank(3).Node() {
		t.Fatal("ranks 0-3 not packed on node 0")
	}
	if c.World.Rank(8).Node() != c.World.Rank(9).Node() {
		t.Fatal("ranks 8-9 not packed on node 2")
	}
	if c.World.Rank(0).Node() == c.World.Rank(9).Node() {
		t.Fatal("rank 9 should live on the last node")
	}
}

func TestTotalRanksOverCapacityPanics(t *testing.T) {
	cfg := cluster.Small()
	cfg.ComputeNodes = 2
	cfg.RanksPerNode = 2
	cfg.TotalRanks = 5
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cluster.New(cfg)
}

func TestConstructionDeterministic(t *testing.T) {
	run := func() sim.Duration {
		c := cluster.New(cluster.Small())
		return workload.Run(c.World, workload.Params{
			Pattern: workload.N1Strided, BlockSize: 64 << 10, NObj: 2, Path: "/pfs/d",
		}).Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cluster construction not deterministic: %v vs %v", a, b)
	}
}

func TestDifferentSeedsDifferentClocks(t *testing.T) {
	cfgA := cluster.Small()
	cfgA.Seed = 1
	cfgB := cluster.Small()
	cfgB.Seed = 2
	a := cluster.New(cfgA)
	b := cluster.New(cfgB)
	same := true
	for i := range a.Kernels {
		if a.Kernels[i].Clock().SkewAt(0) != b.Kernels[i].Clock().SkewAt(0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical clock assignments")
	}
}

// --- cross-subsystem integration ---

func TestDiskFailureSurfacesToApplication(t *testing.T) {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	c := cluster.New(cfg)
	// Kill two drives in every server's group so any write must fail.
	for i := 0; i < cfg.PFS.Servers; i++ {
		c.PFS.Array(i).Disk(0).Fail()
		c.PFS.Array(i).Disk(1).Fail()
	}
	var writeErr error
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		if r.RankID() != 0 {
			return
		}
		f, err := r.FileOpen(p, "/pfs/doomed", mpi.ModeCreate|mpi.ModeWronly)
		if err != nil {
			writeErr = err
			return
		}
		_, writeErr = f.WriteAt(p, 0, 256<<10)
	})
	if writeErr == nil {
		t.Fatal("double disk failure did not surface to the application")
	}
}

func TestDegradedModeKeepsReadsWorking(t *testing.T) {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	c := cluster.New(cfg)
	var readErr error
	var n int64
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		if r.RankID() != 0 {
			return
		}
		f, _ := r.FileOpen(p, "/pfs/deg", mpi.ModeCreate|mpi.ModeRdwr)
		f.WriteAt(p, 0, 256<<10)
		// One drive fails per server: RAID-5 reconstructs.
		for i := 0; i < cfg.PFS.Servers; i++ {
			c.PFS.Array(i).Disk(0).Fail()
		}
		n, readErr = f.ReadAt(p, 0, 256<<10)
		f.Close(p)
	})
	if readErr != nil || n != 256<<10 {
		t.Fatalf("degraded read: n=%d err=%v", n, readErr)
	}
}

func TestTracefsOverNFSOnCluster(t *testing.T) {
	// The paper: "tracing of I/O on the Network File System (NFS) was
	// functional". Stand up an NFS personality on the cluster network,
	// stack Tracefs over its client, and mount it on a compute node.
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	c := cluster.New(cfg)
	nfs := pfs.New(c.Net, pfs.DefaultNFS())
	nfsClient := pfs.NewClient(nfs, cluster.NodeName(0))
	tfs, err := tracefs.Mount(nfsClient, tracefs.DefaultConfig())
	if err != nil {
		t.Fatalf("tracefs over NFS: %v", err)
	}
	c.Kernels[0].Mount("/nfs", tfs)

	pc := c.Kernels[0].Spawn(vfs.Cred{UID: 1})
	c.Env.Go("app", func(p *sim.Proc) {
		fd, err := pc.Open(p, "/nfs/home/file", vfs.OCreate|vfs.OWronly, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		pc.PWrite(p, fd, 0, 32<<10)
		pc.Close(p, fd)
	})
	c.Env.Run()

	if tfs.Counters["VFS_write"] != 1 || tfs.Counters["VFS_open"] != 1 {
		t.Fatalf("tracefs counters over NFS: %v", tfs.Counters)
	}
	size, _, _, ok := nfs.Snapshot("/nfs/home/file")
	if !ok || size != 32<<10 {
		t.Fatalf("NFS end state: size=%d ok=%v", size, ok)
	}
	if !strings.Contains(tfs.FSName(), "nfs") {
		t.Fatalf("layered name: %s", tfs.FSName())
	}
}

func TestSharedNetworkMultipleFilesystems(t *testing.T) {
	// Two PFS deployments coexist on one network under distinct names.
	cfg := cluster.Small()
	c := cluster.New(cfg)
	scratch := pfs.New(c.Net, pfs.Config{Name: "scratch", Servers: 2, Stackable: false})
	client := pfs.NewClient(scratch, cluster.NodeName(1))
	c.Kernels[1].Mount("/scratch", client)
	pc := c.Kernels[1].Spawn(vfs.Cred{})
	c.Env.Go("app", func(p *sim.Proc) {
		fd, err := pc.Open(p, "/scratch/x", vfs.OCreate|vfs.OWronly, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		pc.PWrite(p, fd, 0, 128<<10)
		pc.Close(p, fd)
	})
	c.Env.Run()
	size, _, _, ok := scratch.Snapshot("/scratch/x")
	if !ok || size != 128<<10 {
		t.Fatalf("scratch end state: %d %v", size, ok)
	}
}

// serverRecorder subscribes to the server-side tracepoint, counting any
// call that carries a process (server-side layers have none).
type serverRecorder struct {
	recs     []trace.Record
	withProc int
}

func (h *serverRecorder) Enter(*sim.Proc, string) { h.withProc++ }
func (h *serverRecorder) Exit(p *sim.Proc, r *trace.Record) {
	if p != nil {
		h.withProc++
	}
	h.recs = append(h.recs, r.Clone())
}

// TestServerTracingScheduleNeutral runs one workload with and without a
// subscriber on the server-side tracepoint: every rank must finish at the
// same instant and the run must end at the same instant. The subscriber
// sees every server-side layer, only through Exit with no process, and
// each PFS request record parents to the network hop that delivered it.
func TestServerTracingScheduleNeutral(t *testing.T) {
	w := workload.MustByName("checkpoint-restart")
	sc := workload.Scale{BlockSize: 256 << 10, PerRankBytes: 1 << 20}
	run := func(h trace.Hook) *cluster.Cluster {
		c := cluster.New(cluster.Small())
		if h != nil {
			c.Net.Tracepoint().Attach(h)
		}
		w.Run(c.World, sc)
		return c
	}
	plain := run(nil)
	rec := &serverRecorder{}
	traced := run(rec)
	if !slices.Equal(plain.World.FinishedAt, traced.World.FinishedAt) {
		t.Errorf("FinishedAt differs:\n untraced %v\n   traced %v", plain.World.FinishedAt, traced.World.FinishedAt)
	}
	if plain.Env.Now() != traced.Env.Now() {
		t.Errorf("final time: untraced %v, traced %v", plain.Env.Now(), traced.Env.Now())
	}
	if rec.withProc != 0 {
		t.Errorf("%d server-side calls carried a process or entered", rec.withProc)
	}
	deliveries := make(map[uint64]bool)
	layers := make(map[string]int)
	for _, r := range rec.recs {
		layers[r.Name[:strings.IndexByte(r.Name, '_')]]++
		if r.Name == "NET_deliver" {
			deliveries[r.Span] = true
		}
	}
	for _, l := range []string{"NET", "PFS", "DISK"} {
		if layers[l] == 0 {
			t.Errorf("no %s_* records (saw %v)", l, layers)
		}
	}
	for _, r := range rec.recs {
		if strings.HasPrefix(r.Name, "PFS_") && !deliveries[r.Parent] {
			t.Errorf("%s parent %d is not a NET_deliver span", r.Name, r.Parent)
		}
	}
}
