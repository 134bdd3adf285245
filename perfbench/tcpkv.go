package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/sys"
	"rakis/internal/workloads"
)

const (
	kvPort  = 6379
	kvConns = 2
	// kvKeys is the keyspace per connection (an arbitrary pick). Each
	// connection owns its keys, so its own SETs are the exact model its
	// GETs are checked against.
	kvKeys = 128
	// kvSets:kvGets is the SET:GET ratio of the measured mix, the
	// default of memtier_benchmark (--ratio=1:10). Keys are drawn
	// uniformly, as in memtier's default random key pattern.
	kvSets = 1
	kvGets = 10
)

// kvPending is one command in flight on a connection.
type kvPending struct {
	get  bool
	want int // value index a GET must return; -1 means the key is unset
	at   uint64
}

// startKV runs the tcp-kv workload: the epoll Redis-style server on the
// in-enclave TCP stack, driven by two pipelined client connections.
func startKV(w *experiments.World, in *inputs, wrap func(sys.Sys) sys.Sys, window int, l *load) error {
	srvThread, err := w.ServerThread()
	if err != nil {
		return err
	}
	srv := wrap(srvThread)
	ready := make(chan struct{})
	srvErr := make(chan error, 1)
	go func() { srvErr <- workloads.RedisServerEpoll(srv, kvPort, ready) }()
	select {
	case <-ready:
	case err := <-srvErr:
		return fmt.Errorf("tcp-kv server: %w", err)
	}
	dst := sys.Addr{IP: w.WorkloadEnv().TCPServerIP(), Port: kvPort}

	for ci := 0; ci < kvConns; ci++ {
		cli := w.ClientThread()
		fd, err := cli.Socket(sys.TCP)
		if err != nil {
			return err
		}
		if err := cli.Connect(fd, dst); err != nil {
			return fmt.Errorf("tcp-kv conn %d: %w", ci, err)
		}
		conn := ci
		l.addClient(cli.Clock(), func(c *client) { kvConn(c, cli, fd, conn, in, window) })
	}

	l.shutdown = func() error {
		stopper := w.ClientThread()
		sfd, err := stopper.Socket(sys.TCP)
		if err != nil {
			return err
		}
		if err := stopper.Connect(sfd, dst); err != nil {
			return err
		}
		if err := sendAll(stopper, sfd, []byte("SHUTDOWN\r\n")); err != nil {
			return err
		}
		select {
		case err := <-srvErr:
			if err != nil {
				return fmt.Errorf("tcp-kv server: %w", err)
			}
			return nil
		case <-time.After(opTimeout):
			return fmt.Errorf("tcp-kv server did not shut down")
		}
	}
	return nil
}

// kvConn is one closed-loop client connection with up to window commands
// in flight. It first SETs every key it owns, then runs the seeded
// GET/SET mix; every reply is checked against its own SETs.
func kvConn(c *client, cli sys.Sys, fd, conn int, in *inputs, window int) {
	r := in.rng(uint64(100 + conn))
	model := make([]int, kvKeys)
	for i := range model {
		model[i] = -1
	}
	var (
		pending []kvPending
		cmd     []byte
		rbuf    []byte
		scratch = make([]byte, 16384)
		next    int
	)
	defer cli.Close(fd)
	for {
		for len(pending) < window && c.l.running() {
			var key, val int
			get := false
			if next < kvKeys {
				key, val = next, r.IntN(kvValues)
			} else {
				key = r.IntN(kvKeys)
				get = r.IntN(kvSets+kvGets) >= kvSets
				val = r.IntN(kvValues)
			}
			next++
			cmd = cmd[:0]
			if get {
				cmd = append(cmd, "GET k"...)
			} else {
				cmd = append(cmd, "SET k"...)
			}
			cmd = strconv.AppendInt(cmd, int64(conn), 10)
			cmd = append(cmd, ':')
			cmd = strconv.AppendInt(cmd, int64(key), 10)
			p := kvPending{get: get, want: model[key], at: c.clk.Now()}
			if !get {
				cmd = append(cmd, ' ')
				cmd = append(cmd, in.values[val]...)
				model[key] = val
			}
			cmd = append(cmd, '\r', '\n')
			if err := sendAll(cli, fd, cmd); err != nil {
				lost(fmt.Errorf("tcp-kv conn %d send: %w", conn, err))
				c.fail(len(pending) + 1)
				return
			}
			pending = append(pending, p)
		}
		if len(pending) == 0 {
			return
		}
		// Consume every complete reply already buffered, then read more.
		for len(pending) > 0 {
			ok, rest, err := kvReply(rbuf, pending[0], in)
			if err != nil {
				c.l.mismatch("tcp-kv conn %d: %v", conn, err)
				return
			}
			if !ok {
				break
			}
			rbuf = append(rbuf[:0], rest...)
			c.done(c.clk.Now() - pending[0].at)
			pending = append(pending[:0], pending[1:]...)
		}
		if len(pending) == 0 {
			continue
		}
		n, err := pollRead(cli, fd, opTimeout, func() (int, error) { return cli.Recv(fd, scratch, false) })
		if err == nil && n == 0 {
			err = fmt.Errorf("connection closed mid-reply")
		}
		if err != nil {
			lost(fmt.Errorf("tcp-kv conn %d: %w", conn, err))
			c.fail(len(pending))
			return
		}
		rbuf = append(rbuf, scratch[:n]...)
	}
}

// kvReply checks the reply at the head of buf against the pending
// command. It reports whether a complete reply was there and returns the
// rest of the buffer.
func kvReply(buf []byte, p kvPending, in *inputs) (bool, []byte, error) {
	nl := bytes.Index(buf, []byte("\r\n"))
	if nl < 0 {
		return false, buf, nil
	}
	head := buf[:nl]
	if !p.get {
		if string(head) != "+OK" {
			return false, buf, fmt.Errorf("SET got %q", head)
		}
		return true, buf[nl+2:], nil
	}
	if p.want < 0 {
		if string(head) != "$-1" {
			return false, buf, fmt.Errorf("GET of an unset key got %q", head)
		}
		return true, buf[nl+2:], nil
	}
	want := in.values[p.want]
	if len(head) < 2 || head[0] != '$' {
		return false, buf, fmt.Errorf("GET got %q", head)
	}
	n, err := strconv.Atoi(string(head[1:]))
	if err != nil || n != len(want) {
		return false, buf, fmt.Errorf("GET got length %q, want %d", head[1:], len(want))
	}
	end := nl + 2 + n + 2
	if len(buf) < end {
		return false, buf, nil
	}
	if !bytes.Equal(buf[nl+2:nl+2+n], want) || string(buf[end-2:end]) != "\r\n" {
		return false, buf, fmt.Errorf("GET returned a value other than the last SET")
	}
	return true, buf[end:], nil
}

func sendAll(t sys.Sys, fd int, p []byte) error {
	for len(p) > 0 {
		n, err := t.Send(fd, p)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("send accepted no bytes")
		}
		p = p[n:]
	}
	return nil
}
