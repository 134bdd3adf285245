package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/sys"
	"rakis/internal/workloads"
)

const (
	udpPort    = 7
	udpPayload = 64
	udpFlows   = 2
	// udpPill is the first byte that retires a server thread. Flow ids
	// are 0 and 1, so a real payload never starts with it.
	udpPill = 0xFF
)

// startUDP runs the udp-rr workload: two server threads sharing one
// socket on a two-shard world, each a plain recvfrom/sendto loop, and
// two client flows pinned one per shard.
func startUDP(w *experiments.World, in *inputs, wrap func(sys.Sys) sys.Sys, window int, l *load) error {
	first, err := w.ServerThread()
	if err != nil {
		return err
	}
	srv := wrap(first)
	sfd, err := srv.Socket(sys.UDP)
	if err != nil {
		return err
	}
	if err := srv.Bind(sfd, udpPort); err != nil {
		return err
	}
	threads := []sys.Sys{srv, srv.Clone()}
	srvErr := make(chan error, len(threads))
	for _, t := range threads {
		go func(t sys.Sys) { srvErr <- serveEcho(t, sfd) }(t)
	}

	dst := sys.Addr{IP: w.ServerIP, Port: udpPort}
	taken := make(map[uint16]bool)
	for f := 0; f < udpFlows; f++ {
		port, err := workloads.PinFlowPort(experiments.ClientIP, w.ServerIP, udpPort, f, udpFlows, taken)
		if err != nil {
			return err
		}
		cli := w.ClientThread()
		cfd, err := cli.Socket(sys.UDP)
		if err != nil {
			return err
		}
		if err := cli.Bind(cfd, port); err != nil {
			return err
		}
		flow := uint32(f)
		l.addClient(cli.Clock(), func(c *client) { udpFlow(c, cli, cfd, dst, flow, in, window) })
	}

	l.shutdown = func() error {
		// Pills go out one at a time from a fresh socket until every
		// server thread has eaten one.
		killer := w.ClientThread()
		kfd, err := killer.Socket(sys.UDP)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(opTimeout)
		for left := len(threads); left > 0; {
			if time.Now().After(deadline) {
				return fmt.Errorf("udp-rr: %d server threads did not stop", left)
			}
			if _, err := killer.SendTo(kfd, []byte{udpPill}, dst); err != nil {
				return err
			}
			select {
			case err := <-srvErr:
				if err != nil {
					return fmt.Errorf("udp-rr server: %w", err)
				}
				left--
			case <-time.After(50 * time.Millisecond):
			}
		}
		return nil
	}
	return nil
}

// serveEcho is one server thread: blocking recvfrom, sendto the same
// bytes back, until a pill arrives.
func serveEcho(t sys.Sys, fd int) error {
	buf := make([]byte, 2048)
	for {
		op := beginOp(t, "serve.echo")
		n, src, err := t.RecvFrom(fd, buf, true)
		if err != nil {
			return err
		}
		if n >= 1 && buf[0] == udpPill {
			endOp(t, op)
			return nil
		}
		if n >= 8 {
			setReq(t, op, uint64(binary.BigEndian.Uint32(buf[0:]))<<32|uint64(binary.BigEndian.Uint32(buf[4:])))
		}
		if _, err := t.SendTo(fd, buf[:n], src); err != nil {
			return err
		}
		endOp(t, op)
	}
}

// udpFlow is one closed-loop client flow with up to window datagrams in
// flight. Every echo must come back with the bytes that were sent.
func udpFlow(c *client, cli sys.Sys, fd int, dst sys.Addr, flow uint32, in *inputs, window int) {
	sent := make(map[uint32]uint64, window) // seq -> client clock at send
	gone := map[uint32]bool{}               // seqs counted as failed; a late echo is dropped
	payload := make([]byte, udpPayload)
	want := make([]byte, udpPayload)
	buf := make([]byte, 2048)
	var seq uint32
	for {
		for len(sent) < window && c.l.running() {
			in.echoPayload(payload, flow, seq)
			sent[seq] = c.clk.Now()
			if _, err := cli.SendTo(fd, payload, dst); err != nil {
				delete(sent, seq)
				c.fail(1)
			}
			seq++
		}
		if len(sent) == 0 {
			return
		}
		n, err := pollRead(cli, fd, opTimeout, func() (int, error) {
			n, _, err := cli.RecvFrom(fd, buf, false)
			return n, err
		})
		if err != nil {
			lost(fmt.Errorf("udp-rr flow %d: %d echoes never returned: %w", flow, len(sent), err))
			c.fail(len(sent))
			for s := range sent {
				gone[s] = true
			}
			clear(sent)
			continue
		}
		if n != udpPayload || binary.BigEndian.Uint32(buf) != flow {
			c.l.mismatch("udp-rr flow %d: echo of %d bytes for flow %d", flow, n, binary.BigEndian.Uint32(buf))
			return
		}
		s := binary.BigEndian.Uint32(buf[4:])
		at, ok := sent[s]
		if !ok && gone[s] {
			delete(gone, s)
			continue
		}
		if !ok {
			c.l.mismatch("udp-rr flow %d: echo of seq %d, which is not in flight", flow, s)
			return
		}
		in.echoPayload(want, flow, s)
		if !bytes.Equal(buf[:n], want) {
			c.l.mismatch("udp-rr flow %d: echo of seq %d has wrong bytes", flow, s)
			return
		}
		delete(sent, s)
		c.done(c.clk.Now() - at)
	}
}
