package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// Load phases. Clients read the phase at every op boundary: warm-up ops
// are counted toward the warm-up target only, measured ops feed every
// end-to-end metric, and at phaseStop each client drains its window and
// returns.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// opTimeout bounds one real-time wait for a reply. An op that exceeds
// it counts as failed.
const opTimeout = 5 * time.Second

// load is one running workload instance inside one world: the closed-loop
// clients and the servers they talk to.
type load struct {
	phase    atomic.Int32
	warmOps  int64
	warmed   atomic.Int64
	warmDone chan struct{}
	firstOp  chan struct{}
	first    sync.Once

	clients []*client
	wg      sync.WaitGroup
	// slot is the sub-window of the measured phase ops are counted in.
	slot atomic.Int32

	// shutdown stops the servers once every client has returned.
	shutdown func() error

	mu    sync.Mutex
	wrong error         // first output mismatch: fails the run
	bad   chan struct{} // closed with the first mismatch
}

func newLoad(warmOps int) *load {
	return &load{
		warmOps:  int64(warmOps),
		warmDone: make(chan struct{}),
		firstOp:  make(chan struct{}),
		bad:      make(chan struct{}),
	}
}

func (l *load) running() bool { return l.phase.Load() != phaseStop }

// mismatch records wrong bytes from the program under test.
func (l *load) mismatch(format string, args ...any) {
	l.mu.Lock()
	if l.wrong == nil {
		l.wrong = fmt.Errorf(format, args...)
		close(l.bad)
	}
	l.mu.Unlock()
}

// lost reports ops a client gave up on. They count as failed, not as a
// broken run.
func lost(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
}

// client is one closed-loop load generator: a goroutine with its own
// virtual clock. Its counters are written only by that goroutine and
// read after it has returned.
type client struct {
	l   *load
	clk *vtime.Clock

	ops     int64 // completed ops, every phase
	failed  int64 // failed ops (timeout, refusal), every phase
	mfailed int64 // failed ops in the measured phase
	slots   [measureSlots]clientSlot
}

// clientSlot is what one client saw in one sub-window of the measured
// phase. Its first completion opens the slot's virtual window; ops and
// latencies are counted after it.
type clientSlot struct {
	ops     int64
	lat     []uint64
	vStart  uint64
	vEnd    uint64
	started bool
}

func (l *load) addClient(clk *vtime.Clock, body func(c *client)) {
	c := &client{l: l, clk: clk}
	l.clients = append(l.clients, c)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		body(c)
	}()
}

// done records one completed op whose virtual latency was lat cycles.
func (c *client) done(lat uint64) {
	c.ops++
	switch c.l.phase.Load() {
	case phaseWarm:
		if c.l.warmed.Add(1) == c.l.warmOps {
			close(c.l.warmDone)
		}
	case phaseMeasure:
		c.l.first.Do(func() { close(c.l.firstOp) })
		now := c.clk.Now()
		cs := &c.slots[c.l.slot.Load()]
		if !cs.started {
			cs.started = true
			cs.vStart = now
			return
		}
		cs.vEnd = now
		cs.ops++
		cs.lat = append(cs.lat, lat)
	}
}

// fail records n failed ops.
func (c *client) fail(n int) {
	c.failed += int64(n)
	if c.l.phase.Load() == phaseMeasure {
		c.mfailed += int64(n)
	}
}

// session is one booted world running one load.
type session struct {
	w     *experiments.World
	l     *load
	boot  time.Duration // NewWorld
	setup time.Duration // boot start to the first op after warm-up
	// bootRSS is the process's resident-set high-water mark when
	// NewWorld has returned.
	bootRSS float64
}

// startSession boots a world, starts the workload and runs it through
// warm-up to its first measured op.
func startSession(wl *workload, in *inputs, sink *telemetry.Sink, wrap func(sys.Sys) sys.Sys) (*session, error) {
	opts := wl.opts
	opts.Telemetry = sink
	t0 := time.Now()
	w, err := experiments.NewWorld(opts)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	s := &session{w: w, boot: time.Since(t0), bootRSS: peakRSSMB()}
	s.l = newLoad(wl.warmOps)
	if err := wl.start(w, in, wrap, wl.window, s.l); err != nil {
		s.l.phase.Store(phaseStop)
		s.l.wg.Wait()
		w.Close()
		return nil, fmt.Errorf("start: %w", err)
	}
	if err := s.await(s.l.warmDone, "warm-up"); err != nil {
		return nil, err
	}
	s.l.phase.Store(phaseMeasure)
	if err := s.await(s.l.firstOp, "first measured op"); err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *session) await(ch chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-s.l.bad:
		return s.stop()
	case <-time.After(60 * time.Second):
		err := s.stop()
		return fmt.Errorf("%s not reached within 60s (stop: %v)", what, err)
	}
}

// measureSlots is the number of equal sub-windows the measured phase
// is cut into. Throughput and latency are computed per sub-window and
// reported as the median over them, so a short disturbance from outside
// the benchmark moves one sub-window, not the result.
const measureSlots = 20

// slotSample is what one sub-window saw on the simulator plane.
type slotSample struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	exits   uint64
}

// measure runs the measured phase for d of wall time in measureSlots
// sub-windows, then tells the clients to stop.
func (s *session) measure(d time.Duration, prof *profiles) ([measureSlots]slotSample, error) {
	var out [measureSlots]slotSample
	if prof != nil {
		if err := prof.start(); err != nil {
			s.l.phase.Store(phaseStop)
			return out, err
		}
	}
	type cut struct {
		t       time.Time
		cpu     time.Duration
		mallocs uint64
		exits   uint64
	}
	take := func() cut {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return cut{time.Now(), cpuTime(), ms.Mallocs, s.w.Counters.EnclaveExits.Load()}
	}
	prev := take()
	for i := 0; i < measureSlots; i++ {
		select {
		case <-time.After(d / measureSlots):
		case <-s.l.bad:
			// Cut the phase short; stop reports the wrong output.
			i = measureSlots - 1
		}
		if i+1 < measureSlots {
			s.l.slot.Store(int32(i + 1))
		} else {
			s.l.phase.Store(phaseStop)
		}
		c := take()
		out[i] = slotSample{c.t.Sub(prev.t), c.cpu - prev.cpu, c.mallocs - prev.mallocs, c.exits - prev.exits}
		prev = c
	}
	if prof != nil {
		if err := prof.stop(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// stop joins the clients, shuts the servers down and closes the world.
// Wrong output seen at any point of the session is its error.
func (s *session) stop() error {
	s.l.phase.Store(phaseStop)
	s.l.wg.Wait()
	var err error
	if s.l.shutdown != nil {
		err = s.l.shutdown()
	}
	s.w.Close()
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.l.wrong != nil {
		return fmt.Errorf("wrong output: %v (shutdown: %v)", s.l.wrong, err)
	}
	return err
}

// totals sums the clients' op counts over every phase.
func (l *load) totals() (ops, failed int64) {
	for _, c := range l.clients {
		ops += c.ops
		failed += c.failed
	}
	return ops, failed
}

// pollRead retries the non-blocking read until it succeeds, sleeping in
// Poll on fd between tries, for up to timeout of real time.
func pollRead(t sys.Sys, fd int, timeout time.Duration, read func() (int, error)) (int, error) {
	deadline := time.Now().Add(timeout)
	fds := []sys.PollFD{{FD: fd, Events: sys.PollIn}}
	for {
		n, err := read()
		if err == nil {
			return n, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return 0, fmt.Errorf("no reply within %v", timeout)
		}
		fds[0].Revents = 0
		if _, err := t.Poll(fds, min(remain, 50*time.Millisecond)); err != nil {
			return 0, err
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
