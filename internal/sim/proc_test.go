package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicSurfacesFromRun panics inside a process and recovers on the
// goroutine that called Run: the value must name the process, wrap the
// original panic value, and carry the process's stack.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	env := NewEnv(1)
	env.Go("bystander", func(p *Proc) { p.Sleep(100) })
	env.Go("bomber", func(p *Proc) {
		p.Sleep(10)
		panic(sentinel)
	})
	var r any
	func() {
		defer func() { r = recover() }()
		env.Run()
	}()
	env.Stop() // release the bystander
	err, ok := r.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", r, r)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("recovered %v does not wrap the sentinel", err)
	}
	msg := err.Error()
	for _, want := range []string{`"bomber"`, sentinel.Error(), "TestProcPanicSurfacesFromRun"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic value lacks %q:\n%s", want, msg)
		}
	}
}

// TestProcPanicReleasesBystanders panics inside a process while others are
// parked and checks that, with no Stop from the caller, Run has killed the
// bystanders: their deferred calls ran and their goroutines exited.
func TestProcPanicReleasesBystanders(t *testing.T) {
	const n = 4
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	unwound := 0
	for i := 0; i < n; i++ {
		env.Go("bystander", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Second)
		})
	}
	env.Go("bomber", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned without surfacing the panic")
			}
		}()
		env.Run()
	}()
	if unwound != n {
		t.Errorf("deferred calls ran in %d of %d bystanders", unwound, n)
	}
	if env.LiveProcs() != 0 {
		t.Errorf("LiveProcs after the panic = %d, want 0", env.LiveProcs())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the panic, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopReleasesGoroutinesAndRunsDefers kills processes two ways — parked
// past a RunUntil deadline (on a sleep, a mailbox and a wait group), and
// spawned but never dispatched — and checks that the parked ones unwind
// through their deferred calls, the undispatched ones never run, and every
// process goroutine exits.
func TestStopReleasesGoroutinesAndRunsDefers(t *testing.T) {
	const n = 12
	base := runtime.NumGoroutine()

	env := NewEnv(1)
	mb := NewMailbox[int](env)
	wg := NewWaitGroup(env)
	wg.Add(1)
	blockers := []func(p *Proc){
		func(p *Proc) { p.Sleep(Second) },
		func(p *Proc) { mb.Get(p) },
		func(p *Proc) { wg.Wait(p) },
	}
	unwound := 0
	for i := 0; i < n; i++ {
		block := blockers[i%len(blockers)]
		env.Go("parked", func(p *Proc) {
			defer func() { unwound++ }()
			block(p)
			t.Error("parked process resumed after the deadline")
		})
	}
	env.RunUntil(Millisecond)
	if unwound != n {
		t.Errorf("deferred calls ran in %d of %d killed processes", unwound, n)
	}
	if env.LiveProcs() != 0 {
		t.Errorf("LiveProcs after RunUntil = %d, want 0", env.LiveProcs())
	}

	idle := NewEnv(1)
	ran := 0
	for i := 0; i < n; i++ {
		idle.Go("idle", func(p *Proc) { ran++ })
	}
	if idle.LiveProcs() != n {
		t.Errorf("LiveProcs before Stop = %d, want %d", idle.LiveProcs(), n)
	}
	idle.Stop()
	if ran != 0 {
		t.Errorf("%d never-dispatched processes ran at Stop", ran)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Stop, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
