package main

import (
	"bytes"
	"fmt"

	"rakis/internal/experiments"
	"rakis/internal/sys"
)

const (
	filePath = "/perfbench.dat"
	// Op sizes are drawn uniformly from [fileMinIO, fileMaxIO], 4 KiB on
	// average. The range is an arbitrary pick, not measured traffic; it
	// is there so that pwrites and preads differ in modelled cost and
	// the latency percentiles carry information.
	fileMinIO = 2048
	fileMaxIO = 6144
	// fileFsyncEvery makes every Nth op an fsync (an arbitrary pick).
	fileFsyncEvery = 32
	// fileReadPercent is the share of preads among the other ops: fio's
	// default read share for a mixed job (rwmixread=50).
	fileReadPercent = 50
	// fileCycleWrites appends make one file's life: then the file is
	// reopened with O_TRUNC and the next cycle starts at size 0. Every
	// cycle does the same work, so the cost of an op does not depend on
	// how many ops the measured time had room for.
	fileCycleWrites = 256
)

// startFile runs the file-rw workload: one RAKIS thread issuing a
// seeded mix of appending pwrites, preads at random offsets in the
// written region, and a periodic fsync, on a file that is truncated
// every fileCycleWrites appends. The thread is both the application and
// its own load generator, so its clock times each call.
func startFile(w *experiments.World, in *inputs, wrap func(sys.Sys) sys.Sys, _ int, l *load) error {
	th, err := w.ServerThread()
	if err != nil {
		return err
	}
	t := wrap(th)
	fd, err := t.Open(filePath, sys.ORdwr|sys.OCreate|sys.OTrunc)
	if err != nil {
		return err
	}
	l.addClient(t.Clock(), func(c *client) { fileOps(c, t, &fd, in) })
	// Runs after the client has returned, so fd is its last file.
	l.shutdown = func() error { return t.Close(fd) }
	return nil
}

func fileOps(c *client, t sys.Sys, fd *int, in *inputs) {
	r := in.rng(200)
	buf := make([]byte, fileMaxIO)
	want := make([]byte, fileMaxIO)
	var (
		size    int64  // bytes in the current file
		appends int    // appends to the current file
		cycle   uint64 // files started before the current one
	)
	for seq := uint64(1); c.l.running(); seq++ {
		if appends == fileCycleWrites {
			if err := t.Close(*fd); err != nil {
				lost(fmt.Errorf("file-rw: close: %w", err))
				c.fail(1)
				return
			}
			var err error
			if *fd, err = t.Open(filePath, sys.ORdwr|sys.OCreate|sys.OTrunc); err != nil {
				lost(fmt.Errorf("file-rw: reopen: %w", err))
				c.fail(1)
				return
			}
			size, appends = 0, 0
			cycle++
		}
		n := fileMinIO + r.IntN(fileMaxIO-fileMinIO+1)
		at := c.clk.Now()
		switch {
		case seq%fileFsyncEvery == 0:
			op := beginOp(t, "op.fsync")
			setReq(t, op, seq)
			err := t.Fsync(*fd)
			endOp(t, op)
			if err != nil {
				c.fail(1)
				continue
			}
		case size < fileMaxIO || r.IntN(100) >= fileReadPercent:
			in.fileBytes(buf[:n], cycle, size)
			op := beginOp(t, "op.pwrite")
			setReq(t, op, seq)
			got, err := t.Pwrite(*fd, buf[:n], size)
			endOp(t, op)
			if err != nil || got != n {
				c.fail(1)
				continue
			}
			size += int64(n)
			appends++
		default:
			off := r.Int64N(size - int64(n) + 1)
			op := beginOp(t, "op.pread")
			setReq(t, op, seq)
			got, err := t.Pread(*fd, buf[:n], off)
			endOp(t, op)
			if err != nil {
				c.fail(1)
				continue
			}
			in.fileBytes(want[:n], cycle, off)
			if got != n || !bytes.Equal(buf[:n], want[:n]) {
				c.l.mismatch("file-rw: pread of %d bytes at %d returned %d bytes that differ from what was written", n, off, got)
				return
			}
		}
		c.done(c.clk.Now() - at)
	}
}
