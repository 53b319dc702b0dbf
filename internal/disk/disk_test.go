package disk

import (
	"errors"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

// arrayRead and arrayWrite drive the array's event-chain calls from a test
// process, parking it on a mailbox until the call completes.
func arrayRead(p *sim.Proc, a *Array, off, length int64) error {
	return await(p, func(done func(error)) { a.ReadThenSpan(off, length, p.Span(), done) })
}

func arrayWrite(p *sim.Proc, a *Array, off, length int64) error {
	return await(p, func(done func(error)) { a.WriteThenSpan(off, length, p.Span(), done) })
}

func await(p *sim.Proc, call func(done func(error))) error {
	mb := sim.NewMailbox[error](p.Env())
	call(mb.Put)
	return mb.Get(p)
}

func TestDiskSequentialVsRandom(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, DefaultDisk())
	var seq, rnd sim.Time
	env.Go("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			if err := d.Read(p, i*4096, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		seq = p.Now() - start
	})
	env.Run()

	env2 := sim.NewEnv(1)
	d2 := NewDisk(env2, DefaultDisk())
	env2.Go("rnd", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			if err := d2.Read(p, (7-i)*1<<20, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		rnd = p.Now() - start
	})
	env2.Run()
	if rnd <= seq {
		t.Fatalf("random (%v) not slower than sequential (%v)", rnd, seq)
	}
	if d.Seeks != 1 { // only the first access seeks
		t.Fatalf("sequential seeks = %d, want 1", d.Seeks)
	}
	if d2.Seeks != 8 {
		t.Fatalf("random seeks = %d, want 8", d2.Seeks)
	}
}

func TestDiskFailure(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewDisk(env, DefaultDisk())
	d.Fail()
	var err error
	env.Go("t", func(p *sim.Proc) { err = d.Write(p, 0, 100) })
	env.Run()
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
	d.Repair()
	env2 := sim.NewEnv(1)
	d2 := NewDisk(env2, DefaultDisk())
	d2.Fail()
	d2.Repair()
	env2.Go("t", func(p *sim.Proc) { err = d2.Write(p, 0, 100) })
	env2.Run()
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

func TestLayoutSingleUnit(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()}, "", nil)
	ops := a.Layout(0, 64<<10)
	if len(ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(ops))
	}
	if ops[0].length != 64<<10 {
		t.Fatalf("length = %d", ops[0].length)
	}
	// Row 0 parity is on the last drive; data unit 0 is drive 0.
	if ops[0].disk != 0 {
		t.Fatalf("disk = %d, want 0", ops[0].disk)
	}
}

func TestLayoutAvoidsParityDisk(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 1 << 10, Disk: DefaultDisk()}, "", nil)
	// Walk several rows; data ops must never land on that row's parity disk.
	ops := a.Layout(0, 40<<10)
	for _, op := range ops {
		row := op.pos / a.cfg.StripeUnit
		if op.disk == a.parityDisk(row) {
			t.Fatalf("data op on parity disk: %+v (row %d)", op, row)
		}
	}
}

// Property: the layout covers exactly the requested bytes, in order, with
// unit-sized or smaller chunks and no overlap.
func TestLayoutCoverageProperty(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 7, StripeUnit: 4096, Disk: DefaultDisk()}, "", nil)
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw)
		length := int64(lenRaw)%20000 + 1
		ops := a.Layout(off, length)
		var total int64
		cursor := off
		for _, op := range ops {
			if op.length <= 0 || op.length > a.cfg.StripeUnit {
				return false
			}
			// Each op must map the next logical chunk: reconstruct the
			// logical offset from (row,pos,disk) and compare with cursor.
			row := op.pos / a.cfg.StripeUnit
			within := op.pos % a.cfg.StripeUnit
			parity := a.parityDisk(row)
			idxInRow := op.disk
			if idxInRow > parity {
				idxInRow--
			}
			logical := (row*int64(a.DataWidth())+int64(idxInRow))*a.cfg.StripeUnit + within
			if logical != cursor {
				return false
			}
			cursor += op.length
			total += op.length
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: parity rotates across all drives.
func TestParityRotationProperty(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 1024, Disk: DefaultDisk()}, "", nil)
	seen := make(map[int]bool)
	for row := int64(0); row < 5; row++ {
		p := a.parityDisk(row)
		if p < 0 || p >= 5 {
			t.Fatalf("parity disk %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 5 {
		t.Fatalf("parity used %d/5 drives", len(seen))
	}
}

func TestSmallWriteSlowerPerByteThanFullStripe(t *testing.T) {
	cfg := ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()}
	env := sim.NewEnv(1)
	a := NewArray(env, cfg, "", nil)
	rowSize := a.RowSize()

	var fullT, smallT sim.Time
	env.Go("full", func(p *sim.Proc) {
		start := p.Now()
		if err := arrayWrite(p, a, 0, rowSize); err != nil {
			t.Errorf("write: %v", err)
		}
		fullT = p.Now() - start
	})
	env.Run()

	env2 := sim.NewEnv(1)
	a2 := NewArray(env2, cfg, "", nil)
	env2.Go("small", func(p *sim.Proc) {
		start := p.Now()
		if err := arrayWrite(p, a2, 0, 4096); err != nil {
			t.Errorf("write: %v", err)
		}
		smallT = p.Now() - start
	})
	env2.Run()

	perByteFull := fullT.Seconds() / float64(rowSize)
	perByteSmall := smallT.Seconds() / 4096
	if perByteSmall <= perByteFull {
		t.Fatalf("small-write penalty missing: %g <= %g", perByteSmall, perByteFull)
	}
}

func TestSmallWritePenaltyAblation(t *testing.T) {
	base := ArrayConfig{Disks: 5, StripeUnit: 64 << 10, Disk: DefaultDisk()}
	withPenalty := base
	without := base
	without.DisableSmallWritePenalty = true

	timeFor := func(cfg ArrayConfig) sim.Time {
		env := sim.NewEnv(1)
		a := NewArray(env, cfg, "", nil)
		var d sim.Time
		env.Go("w", func(p *sim.Proc) {
			start := p.Now()
			if err := arrayWrite(p, a, 0, 4096); err != nil {
				t.Errorf("write: %v", err)
			}
			d = p.Now() - start
		})
		env.Run()
		return d
	}
	if timeFor(without) >= timeFor(withPenalty) {
		t.Fatal("disabling the small-write penalty did not speed up sub-stripe writes")
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 4, StripeUnit: 1024, Disk: DefaultDisk()}, "", nil)
	a.Disk(0).Fail()
	var err error
	var healthyOps, degradedExtra bool
	env.Go("r", func(p *sim.Proc) {
		err = arrayRead(p, a, 0, 1024) // unit 0 lives on drive 0 (failed)
	})
	env.Run()
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	// Reconstruction must have touched the surviving drives.
	for i := 1; i < 4; i++ {
		if a.Disk(i).Ops > 0 {
			degradedExtra = true
		}
	}
	if !degradedExtra {
		t.Fatal("no reconstruction reads on surviving drives")
	}
	_ = healthyOps
}

func TestDoubleFailureFails(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, ArrayConfig{Disks: 4, StripeUnit: 1024, Disk: DefaultDisk()}, "", nil)
	a.Disk(0).Fail()
	a.Disk(1).Fail()
	var rerr, werr error
	env.Go("t", func(p *sim.Proc) {
		rerr = arrayRead(p, a, 0, 100)
		werr = arrayWrite(p, a, 0, 100)
	})
	env.Run()
	if !errors.Is(rerr, ErrFailed) || !errors.Is(werr, ErrFailed) {
		t.Fatalf("read=%v write=%v, want ErrFailed", rerr, werr)
	}
}

func TestArrayParallelism(t *testing.T) {
	// A full-row write spread over 4 data drives should take much less than
	// 4x a single-unit transfer (drives work in parallel).
	cfg := ArrayConfig{Disks: 5, StripeUnit: 1 << 20, Disk: DefaultDisk()}
	env := sim.NewEnv(1)
	a := NewArray(env, cfg, "", nil)
	var rowT sim.Time
	env.Go("row", func(p *sim.Proc) {
		start := p.Now()
		if err := arrayWrite(p, a, 0, a.RowSize()); err != nil {
			t.Errorf("write: %v", err)
		}
		rowT = p.Now() - start
	})
	env.Run()
	unit := sim.DurationOf(1<<20, cfg.Disk.BandwidthBps) + cfg.Disk.PerOp + cfg.Disk.Seek
	if rowT > 2*unit {
		t.Fatalf("full-row write %v not parallel (unit %v)", rowT, unit)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	env := sim.NewEnv(1)
	for _, fn := range []func(){
		func() { NewArray(env, ArrayConfig{Disks: 2, StripeUnit: 1024, Disk: DefaultDisk()}, "", nil) },
		func() { NewArray(env, ArrayConfig{Disks: 5, StripeUnit: 0, Disk: DefaultDisk()}, "", nil) },
		func() { NewDisk(env, Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTotalOpsCounts(t *testing.T) {
	env := sim.NewEnv(1)
	a := NewArray(env, DefaultArray(), "", nil)
	env.Go("w", func(p *sim.Proc) {
		if err := arrayWrite(p, a, 0, a.RowSize()); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	env.Run()
	if a.TotalOps() < int64(a.DataWidth())+1 {
		t.Fatalf("TotalOps = %d, want >= %d", a.TotalOps(), a.DataWidth()+1)
	}
}
