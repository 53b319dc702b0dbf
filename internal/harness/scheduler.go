package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the bounded simulation scheduler behind every experiment
// engine in the package. A full-registry matrix is frameworks x workloads x
// block sizes x {untraced, traced} independent cluster simulations; before
// the scheduler, each layer fanned out a goroutine per element, so peak
// concurrency grew multiplicatively with the registries (~560 live cluster
// simulations for the built-in registry) and peak memory with it. Every
// simulation now runs as one leaf task on a shared worker pool sized
// min(GOMAXPROCS, simPoolCap), so peak concurrency is a hardware-shaped
// constant no matter how large the registries grow.
//
// Results are unaffected: every leaf task is an independently seeded
// simulation environment, so scheduling order cannot change any measured
// value — only how many simulations are live at once.

// simPoolCap caps the worker pool: beyond this, extra concurrent cluster
// simulations stop paying for their memory (each holds a full simulated
// testbed plus its trace buffers).
const simPoolCap = 16

// PoolSize reports the scheduler's concurrency bound:
// min(GOMAXPROCS, simPoolCap), floored at 1.
func PoolSize() int { return sched.size() }

// SetPoolMemBudget bounds the pool by memory as well as by slots: while the
// estimated heap footprint of running tasks would exceed budget bytes, new
// tasks wait — except that one task is always admitted, so the pool cannot
// deadlock and a budget smaller than any single simulation degrades to
// serial execution rather than failure. Zero (the default) means unlimited.
// The per-task footprint estimate is the largest heap growth observed across
// completed tasks, so the first wave runs unthrottled and the bound tightens
// as real measurements arrive.
func SetPoolMemBudget(bytes int64) { sched.setMemBudget(bytes) }

// PoolMemBudget reports the pool's memory budget in bytes (0 = unlimited).
func PoolMemBudget() int64 { return sched.memBudgetBytes() }

// ParseMemBudget parses a human-readable -pool-mem value: a decimal number
// with an optional B/KB/MB/GB/TB (or KiB/MiB/GiB/TiB) suffix, all binary
// powers of 1024. Empty and "0" mean unlimited.
func ParseMemBudget(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	shift := 0
	for _, u := range []struct {
		suffix string
		shift  int
	}{
		{"KIB", 10}, {"MIB", 20}, {"GIB", 30}, {"TIB", 40},
		{"KB", 10}, {"MB", 20}, {"GB", 30}, {"TB", 40}, {"B", 0},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			upper = strings.TrimSuffix(upper, u.suffix)
			shift = u.shift
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(upper), 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("harness: bad memory budget %q (want e.g. 2GB, 512MB)", s)
	}
	return int64(n * float64(int64(1)<<shift)), nil
}

// sched is the package-wide scheduler shared by Sweep, MatrixSweepOf, the
// Axis sweeps, and the deep-dive experiments: concurrent engines draw from
// one slot pool, so the bound holds globally, not per call.
var sched = newScheduler(defaultPoolSize())

func defaultPoolSize() int {
	n := runtime.GOMAXPROCS(0)
	if n > simPoolCap {
		n = simPoolCap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// scheduler is a counting-semaphore worker pool with peak-concurrency and
// heap high-water instrumentation (the scheduler-bound regression test reads
// the concurrency peak; SweepStats reports both in the stderr footer).
type scheduler struct {
	slots  chan struct{}
	active atomic.Int64
	peak   atomic.Int64

	// peakHeap is the highest HeapAlloc observed while tasks ran: sampled
	// at every task boundary and by a coarse ticker during run calls, so it
	// tracks mid-task highs, not just settle points.
	peakHeap atomic.Uint64
	// taskHW is the largest single-task heap growth observed (bytes): the
	// per-task footprint estimate driving memory-budget admission. With
	// concurrent tasks the boundary delta over-attributes neighbours'
	// allocations; that errs toward admitting less, which is the safe side.
	taskHW atomic.Int64

	// Memory-budget admission gate. memReserved totals the footprint
	// estimates of admitted-but-unfinished tasks; memRunning keeps the
	// always-admit-one guarantee deadlock-free. All guarded by memMu.
	memMu       sync.Mutex
	memCond     *sync.Cond
	memBudget   int64
	memReserved int64
	memRunning  int
}

func newScheduler(size int) *scheduler {
	if size < 1 {
		size = 1
	}
	s := &scheduler{slots: make(chan struct{}, size)}
	s.memCond = sync.NewCond(&s.memMu)
	return s
}

// size returns the concurrency bound.
func (s *scheduler) size() int { return cap(s.slots) }

// resetPeak clears the peak-concurrency and heap watermarks (test hook).
func (s *scheduler) resetPeak() {
	s.peak.Store(0)
	s.peakHeap.Store(0)
}

// peakConcurrency reports the highest number of simultaneously running
// tasks observed since the last resetPeak.
func (s *scheduler) peakConcurrency() int { return int(s.peak.Load()) }

// peakHeapBytes reports the heap high-water (HeapAlloc) observed while
// tasks ran since the last resetPeak.
func (s *scheduler) peakHeapBytes() uint64 { return s.peakHeap.Load() }

func (s *scheduler) setMemBudget(b int64) {
	s.memMu.Lock()
	s.memBudget = b
	s.memMu.Unlock()
	s.memCond.Broadcast()
}

func (s *scheduler) memBudgetBytes() int64 {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	return s.memBudget
}

// sampleHeap reads the live heap size and folds it into the high-water mark.
func (s *scheduler) sampleHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		p := s.peakHeap.Load()
		if ms.HeapAlloc <= p || s.peakHeap.CompareAndSwap(p, ms.HeapAlloc) {
			return ms.HeapAlloc
		}
	}
}

// memAcquire admits one task under the memory budget, blocking until its
// estimated footprint fits (or the pool is idle — one task always runs).
// It returns the bytes reserved, which memRelease must return verbatim.
func (s *scheduler) memAcquire() int64 {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	est := s.taskHW.Load()
	for s.memBudget > 0 && s.memRunning > 0 && s.memReserved+est > s.memBudget {
		s.memCond.Wait()
		est = s.taskHW.Load()
	}
	s.memReserved += est
	s.memRunning++
	return est
}

func (s *scheduler) memRelease(reserved int64) {
	s.memMu.Lock()
	s.memReserved -= reserved
	s.memRunning--
	s.memMu.Unlock()
	s.memCond.Broadcast()
}

// noteTaskGrowth folds one task's boundary heap delta into the per-task
// footprint estimate (monotone max).
func (s *scheduler) noteTaskGrowth(growth int64) {
	for {
		p := s.taskHW.Load()
		if growth <= p || s.taskHW.CompareAndSwap(p, growth) {
			return
		}
	}
}

// task is one schedulable leaf simulation with an a-priori cost estimate,
// used to order a batch shortest-first.
type task struct {
	// cost is a unitless size estimate (roughly proportional to simulated
	// I/O event count). Zero-cost tasks keep submission order.
	cost int64
	run  func()
}

// runAll executes every task and returns when all have finished, in
// submission order. See run for the scheduling contract.
func (s *scheduler) runAll(tasks []func()) {
	ts := make([]task, len(tasks))
	for i, fn := range tasks {
		ts[i] = task{run: fn}
	}
	s.run(ts)
}

// run executes every task and returns when all have finished. Tasks start
// shortest-first (stable on the cost estimate), so a ladder's 4096-rank
// rungs cannot head-of-line-block its cheap rungs behind a full pool. At
// most size() tasks run at once, enforced by the shared slot pool even
// across concurrent run calls. Ordering cannot change any measured value —
// every task is an independently seeded simulation — only when each starts.
// Tasks must be leaf work (they must not call run themselves): a task that
// waited on nested tasks while holding a slot could starve the pool.
func (s *scheduler) run(tasks []task) {
	if len(tasks) == 0 {
		return
	}
	ordered := make([]task, len(tasks))
	copy(ordered, tasks)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].cost < ordered[j].cost })
	workers := s.size()
	if workers > len(ordered) {
		workers = len(ordered)
	}
	// Coarse heap sampler for the duration of this call: task-boundary
	// samples alone would miss mid-task highs (a simulation's trace buffers
	// peak before summarisation frees them). Stats only — never results —
	// so the ticker's nondeterminism cannot touch golden output.
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				s.sampleHeap()
			}
		}
	}()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ordered) {
					return
				}
				s.slots <- struct{}{}
				reserved := s.memAcquire()
				a := s.active.Add(1)
				for {
					p := s.peak.Load()
					if a <= p || s.peak.CompareAndSwap(p, a) {
						break
					}
				}
				h0 := s.sampleHeap()
				ordered[i].run()
				h1 := s.sampleHeap()
				s.noteTaskGrowth(int64(h1) - int64(h0))
				s.active.Add(-1)
				s.memRelease(reserved)
				<-s.slots
			}
		}()
	}
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()
}
