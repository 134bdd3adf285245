package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rakis/internal/sys"
)

// The traced calls: the sys.Sys entry points the three workloads spend
// their time in. Every other call passes through the decorator untimed.
const (
	callSendTo = iota
	callRecvFrom
	callSend
	callRecv
	callEpollWait
	callPwrite
	callPread
	callFsync
	numCalls
)

var callNames = [numCalls]string{"sendto", "recvfrom", "send", "recv", "epoll_wait", "pwrite", "pread", "fsync"}

// maxSpans caps the spans kept in memory per traced run; later spans
// still feed the per-call statistics but are not written to the span
// file.
const maxSpans = 100_000

// span is one recorded interval on a traced thread: either a call into
// the program (named after the call) or a request the benchmark's own
// code handles on that thread (named "serve.*" or "op.*"), which is the
// parent of the calls made while it is open.
type span struct {
	name   string
	parent int32 // index of the parent request span on this thread; -1 is the thread itself
	start  int64 // wall ns since the tracer's epoch
	end    int64
	vcyc   uint64 // thread clock cycles over the span
	req    uint64 // request id; call spans take their parent's
}

// callStats aggregates every call of one kind on one thread.
type callStats struct {
	wall []uint32 // wall ns of each call, in order
	vcyc uint64
}

// tracer owns the traced threads of one run.
type tracer struct {
	epoch  time.Time
	budget atomic.Int64
	mu     sync.Mutex
	thr    []*traceThread
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now()}
	tr.budget.Store(maxSpans)
	return tr
}

// traceThread is the record of one traced thread, written only by the
// goroutine that runs the thread.
type traceThread struct {
	tr      *tracer
	spans   []span
	dropped int
	open    int32
	calls   [numCalls]callStats
}

// tracedSys decorates one application thread: each traced call is
// timed on the wall clock and on the thread's virtual clock.
type tracedSys struct {
	sys.Sys
	th *traceThread
}

// wrap decorates s; threads Cloned from the result are traced too.
func (tr *tracer) wrap(s sys.Sys) sys.Sys {
	th := &traceThread{tr: tr, open: -1}
	tr.mu.Lock()
	tr.thr = append(tr.thr, th)
	tr.mu.Unlock()
	return &tracedSys{Sys: s, th: th}
}

func (tr *tracer) threads() []*traceThread {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*traceThread(nil), tr.thr...)
}

func (th *traceThread) now() int64 { return int64(time.Since(th.tr.epoch)) }

// record appends a span if the budget allows and returns its index.
func (th *traceThread) record(s span) int32 {
	if th.tr.budget.Add(-1) < 0 {
		th.dropped++
		return -1
	}
	th.spans = append(th.spans, s)
	return int32(len(th.spans) - 1)
}

type callMark struct {
	start int64
	v0    uint64
}

func (t *tracedSys) begin() callMark {
	return callMark{start: t.th.now(), v0: t.Sys.Clock().Now()}
}

func (t *tracedSys) end(k int, m callMark) {
	th := t.th
	end := th.now()
	v := t.Sys.Clock().Now() - m.v0
	wall := end - m.start
	if wall > 1<<32-1 {
		wall = 1<<32 - 1
	}
	cs := &th.calls[k]
	cs.wall = append(cs.wall, uint32(wall))
	cs.vcyc += v
	th.record(span{name: callNames[k], parent: th.open, start: m.start, end: end, vcyc: v})
}

// Clone traces the new thread as well.
func (t *tracedSys) Clone() sys.Sys { return t.th.tr.wrap(t.Sys.Clone()) }

func (t *tracedSys) SendTo(fd int, p []byte, addr sys.Addr) (int, error) {
	m := t.begin()
	n, err := t.Sys.SendTo(fd, p, addr)
	t.end(callSendTo, m)
	return n, err
}

func (t *tracedSys) RecvFrom(fd int, p []byte, block bool) (int, sys.Addr, error) {
	m := t.begin()
	n, a, err := t.Sys.RecvFrom(fd, p, block)
	t.end(callRecvFrom, m)
	return n, a, err
}

func (t *tracedSys) Send(fd int, p []byte) (int, error) {
	m := t.begin()
	n, err := t.Sys.Send(fd, p)
	t.end(callSend, m)
	return n, err
}

func (t *tracedSys) Recv(fd int, p []byte, block bool) (int, error) {
	m := t.begin()
	n, err := t.Sys.Recv(fd, p, block)
	t.end(callRecv, m)
	return n, err
}

func (t *tracedSys) EpollWait(epfd int, events []sys.EpollEvent, timeout time.Duration) (int, error) {
	m := t.begin()
	n, err := t.Sys.EpollWait(epfd, events, timeout)
	t.end(callEpollWait, m)
	return n, err
}

func (t *tracedSys) Pwrite(fd int, p []byte, off int64) (int, error) {
	m := t.begin()
	n, err := t.Sys.Pwrite(fd, p, off)
	t.end(callPwrite, m)
	return n, err
}

func (t *tracedSys) Pread(fd int, p []byte, off int64) (int, error) {
	m := t.begin()
	n, err := t.Sys.Pread(fd, p, off)
	t.end(callPread, m)
	return n, err
}

func (t *tracedSys) Fsync(fd int) error {
	m := t.begin()
	err := t.Sys.Fsync(fd)
	t.end(callFsync, m)
	return err
}

// beginOp opens a request span on a traced thread; the calls made until
// endOp are its children. On an untraced thread it does nothing.
func beginOp(t sys.Sys, name string) int32 {
	ts, ok := t.(*tracedSys)
	if !ok {
		return -1
	}
	th := ts.th
	th.open = th.record(span{name: name, parent: -1, start: th.now(), end: -1, vcyc: ts.Sys.Clock().Now()})
	return th.open
}

// setReq names the request an open span is serving, once the thread
// knows it (an echo server learns it from the datagram it received).
func setReq(t sys.Sys, op int32, req uint64) {
	if ts, ok := t.(*tracedSys); ok && op >= 0 {
		ts.th.spans[op].req = req
	}
}

func endOp(t sys.Sys, op int32) {
	ts, ok := t.(*tracedSys)
	if !ok {
		return
	}
	th := ts.th
	th.open = -1
	if op >= 0 {
		s := &th.spans[op]
		s.end = th.now()
		s.vcyc = ts.Sys.Clock().Now() - s.vcyc
	}
}

// writeSpans writes every kept span as CSV: one row per thread (its
// root span, id <thread>.0), then its spans (id <thread>.<index+1>).
// Call spans inherit the request id of their parent request span.
func (tr *tracer) writeSpans(path string) (kept, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,vcyc,req")
	for ti, th := range tr.threads() {
		if len(th.spans) > 0 {
			end := int64(0)
			for _, s := range th.spans {
				end = max(end, s.end)
			}
			fmt.Fprintf(w, "%d.0,,thread,%d,%d,,\n", ti, th.spans[0].start, end)
		}
		for i, s := range th.spans {
			parent := fmt.Sprintf("%d.0", ti)
			req := s.req
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", ti, s.parent+1)
				req = th.spans[s.parent].req
			}
			fmt.Fprintf(w, "%d.%d,%s,%s,%d,%d,%d,%d\n", ti, i+1, parent, s.name, s.start, s.end, s.vcyc, req)
		}
		kept += len(th.spans)
		dropped += th.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return kept, dropped, err
	}
	return kept, dropped, f.Close()
}
