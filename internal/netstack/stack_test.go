package netstack

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"rakis/internal/netsim"
	"rakis/internal/vtime"
)

// devLink adapts a netsim.Device to the stack's LinkDevice.
type devLink struct{ dev *netsim.Device }

func (l devLink) SendFrame(data []byte, clk *vtime.Clock) (uint64, error) {
	return l.dev.Transmit(data, clk.Now())
}
func (l devLink) MAC() [6]byte { return l.dev.MAC() }
func (l devLink) MTU() int     { return l.dev.MTU() }

type world struct {
	a, b *Stack
}

// newWorld wires two full stacks across a simulated 25 Gbps link.
func newWorld(t *testing.T, mutate func(a, b *Config)) *world {
	t.Helper()
	m := vtime.Default()
	da, db := netsim.NewPair(m,
		netsim.Config{Name: "eth0", MAC: [6]byte{2, 0, 0, 0, 0, 1}},
		netsim.Config{Name: "eth1", MAC: [6]byte{2, 0, 0, 0, 0, 2}},
	)
	ca := Config{Name: "a", Dev: devLink{da}, IP: IP4{10, 0, 0, 1}, Model: m, EnableTCP: true, EnableICMP: true}
	cb := Config{Name: "b", Dev: devLink{db}, IP: IP4{10, 0, 0, 2}, Model: m, EnableTCP: true, EnableICMP: true}
	if mutate != nil {
		mutate(&ca, &cb)
	}
	sa, err := New(ca)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := New(cb)
	if err != nil {
		t.Fatal(err)
	}
	da.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sa.Input(f.Data, clk) })
	db.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sb.Input(f.Data, clk) })
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
		da.Close()
		db.Close()
	})
	return &world{a: sa, b: sb}
}

func TestUDPEndToEnd(t *testing.T) {
	w := newWorld(t, nil)
	srv, err := w.b.UDPBind(5000)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := w.a.UDPBind(0)
	if err != nil {
		t.Fatal(err)
	}

	var cclk, sclk vtime.Clock
	msg := []byte("hello over simulated udp")
	if err := cli.SendTo(msg, Addr{IP4{10, 0, 0, 2}, 5000}, &cclk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&sclk, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, msg) {
		t.Fatalf("payload = %q", d.Payload)
	}
	if d.Src.IP != (IP4{10, 0, 0, 1}) || d.Src.Port != cli.LocalAddr().Port {
		t.Fatalf("src = %v", d.Src)
	}
	// Virtual time flowed: the receiver's clock is ahead of the sender's
	// send-start (wire + kernel processing happened in between).
	if sclk.Now() <= 0 || sclk.Now() < d.Stamp {
		t.Fatalf("receiver clock %d, stamp %d", sclk.Now(), d.Stamp)
	}

	// And the reply direction works (ARP already warm).
	if err := srv.SendTo([]byte("pong"), d.Src, &sclk); err != nil {
		t.Fatal(err)
	}
	r, err := cli.RecvFrom(&cclk, true)
	if err != nil || string(r.Payload) != "pong" {
		t.Fatalf("reply = %q, %v", r.Payload, err)
	}
}

func TestUDPEcho1000(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5001)
	cli, _ := w.a.UDPBind(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var clk vtime.Clock
		for i := 0; i < 1000; i++ {
			d, err := srv.RecvFrom(&clk, true)
			if err != nil {
				t.Errorf("server recv %d: %v", i, err)
				return
			}
			if err := srv.SendTo(d.Payload, d.Src, &clk); err != nil {
				t.Errorf("server send %d: %v", i, err)
				return
			}
		}
	}()
	var clk vtime.Clock
	buf := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		if err := cli.SendTo(buf, Addr{IP4{10, 0, 0, 2}, 5001}, &clk); err != nil {
			t.Fatal(err)
		}
		d, err := cli.RecvFrom(&clk, true)
		if err != nil {
			t.Fatal(err)
		}
		if d.Payload[0] != byte(i) || d.Payload[1] != byte(i>>8) {
			t.Fatalf("echo %d corrupted", i)
		}
	}
	<-done
	if clk.Now() == 0 {
		t.Fatal("client clock did not advance")
	}
}

func TestUDPLargeDatagramFragments(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5002)
	cli, _ := w.a.UDPBind(0)
	payload := make([]byte, 9000) // 7 fragments at MTU 1500
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var clk vtime.Clock
	if err := cli.SendTo(payload, Addr{IP4{10, 0, 0, 2}, 5002}, &clk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatal("fragmented datagram corrupted")
	}
}

func TestUDPMaxSizeRejected(t *testing.T) {
	w := newWorld(t, nil)
	cli, _ := w.a.UDPBind(0)
	var clk vtime.Clock
	err := cli.SendTo(make([]byte, MaxUDPPayload+1), Addr{IP4{10, 0, 0, 2}, 1}, &clk)
	if !errors.Is(err, ErrMsgSize) {
		t.Fatalf("err = %v, want ErrMsgSize", err)
	}
}

func TestUDPBindConflicts(t *testing.T) {
	w := newWorld(t, nil)
	if _, err := w.a.UDPBind(7000); err != nil {
		t.Fatal(err)
	}
	if _, err := w.a.UDPBind(7000); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
	e1, _ := w.a.UDPBind(0)
	e2, _ := w.a.UDPBind(0)
	if e1.LocalAddr().Port == e2.LocalAddr().Port {
		t.Fatal("ephemeral ports must differ")
	}
}

func TestUDPConnectSendRecv(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5003)
	cli, _ := w.a.UDPBind(0)
	cli.Connect(Addr{IP4{10, 0, 0, 2}, 5003})
	if _, ok := cli.RemoteAddr(); !ok {
		t.Fatal("RemoteAddr after Connect")
	}
	var clk vtime.Clock
	if err := cli.Send([]byte("via connect"), &clk); err != nil {
		t.Fatal(err)
	}
	d, err := srv.RecvFrom(&clk, true)
	if err != nil || string(d.Payload) != "via connect" {
		t.Fatalf("%q %v", d.Payload, err)
	}
	// Unconnected Send fails.
	if err := srv.Send([]byte("x"), &clk); err == nil {
		t.Fatal("Send on unconnected socket must fail")
	}
}

func TestUDPNonblockingAndClose(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5004)
	var clk vtime.Clock
	if _, err := srv.RecvFrom(&clk, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty nonblocking recv = %v, want ErrWouldBlock", err)
	}
	if srv.Readable() {
		t.Fatal("Readable on empty socket")
	}
	recvDone := make(chan error, 1)
	go func() {
		_, err := srv.RecvFrom(&clk, true)
		recvDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	if err := <-recvDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close = %v, want ErrClosed", err)
	}
	if err := srv.SendTo([]byte("x"), Addr{}, &clk); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
	// Port is free again.
	if _, err := w.b.UDPBind(5004); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5005)
	var clk vtime.Clock
	if _, err := srv.RecvTimeout(&clk, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestUDPWaitReadable(t *testing.T) {
	s := newShardStack(t, 1)
	sock, err := s.UDPBind(5006)
	if err != nil {
		t.Fatal(err)
	}
	src := Addr{IP: IP4{10, 9, 0, 1}, Port: 4000}
	var clk vtime.Clock

	// Nothing queued: the wait runs out and reports no data.
	if sock.WaitReadable(20 * time.Millisecond) {
		t.Fatal("WaitReadable on an empty socket = true")
	}

	// Two waiters, one datagram: the first woken passes the wakeup on,
	// so both see it long before their minute-long waits run out.
	woken := make(chan bool, 2)
	for range 2 {
		go func() { woken <- sock.WaitReadable(time.Minute) }()
	}
	time.Sleep(10 * time.Millisecond)
	injectUDP(s, 0, src, 5006, []byte("x"), &clk)
	for range 2 {
		select {
		case ok := <-woken:
			if !ok {
				t.Fatal("woken waiter saw no data")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter not woken by an arriving datagram")
		}
	}
	if _, err := sock.RecvFrom(&clk, false); err != nil {
		t.Fatalf("recv after wait: %v", err)
	}

	// A wakeup left over from a datagram already taken is dropped: the
	// waiter keeps waiting and reports no data.
	injectUDP(s, 0, src, 5006, []byte("y"), &clk)
	if _, err := sock.RecvFrom(&clk, false); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if sock.WaitReadable(30 * time.Millisecond) {
		t.Fatal("stale wakeup reported data")
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatalf("stale wakeup ended the wait after %v", time.Since(start))
	}
}

func TestCorruptUDPChecksumDropped(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5006)
	// Build a frame by hand with a broken UDP checksum and inject it.
	dgram := make([]byte, UDPHeaderBytes+4)
	put16(dgram[0:2], 1234)
	put16(dgram[2:4], 5006)
	put16(dgram[4:6], uint16(len(dgram)))
	put16(dgram[6:8], 0xBEEF) // wrong
	ip := MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IP4{10, 0, 0, 1}, Dst: IP4{10, 0, 0, 2}}, dgram)
	frame := MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 2}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, ip)
	var clk vtime.Clock
	w.b.Input(frame, &clk)
	if srv.Readable() {
		t.Fatal("corrupt-checksum datagram must be dropped")
	}
	// Zero checksum means "no checksum" and is accepted.
	put16(dgram[6:8], 0)
	ip = MarshalIPv4(IPv4Header{TTL: 64, Proto: ProtoUDP, Src: IP4{10, 0, 0, 1}, Dst: IP4{10, 0, 0, 2}}, dgram)
	frame = MarshalEth(EthHeader{Dst: [6]byte{2, 0, 0, 0, 0, 2}, Src: [6]byte{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}, ip)
	w.b.Input(frame, &clk)
	if !srv.Readable() {
		t.Fatal("zero-checksum datagram must be accepted")
	}
}

func TestICMPEcho(t *testing.T) {
	w := newWorld(t, nil)
	// Observe b's replies by sniffing a's input: bind a raw check via a
	// socket is not possible, so instead send an echo request from a's
	// stack internals and verify no crash plus ARP learning; then check
	// reachability indirectly via UDP.
	body := []byte{0, 1, 0, 1, 'p', 'i', 'n', 'g'}
	req := marshalICMP(icmpEchoRequest, 0, body)
	var clk vtime.Clock
	if _, err := w.a.sendIP(ProtoICMP, IP4{10, 0, 0, 2}, req, &clk); err != nil {
		t.Fatal(err)
	}
	// The reply comes back to a's stack; a accepts it silently. Give the
	// softirq a moment, then confirm both stacks are still healthy.
	time.Sleep(20 * time.Millisecond)
	srv, _ := w.b.UDPBind(5007)
	cli, _ := w.a.UDPBind(0)
	cli.SendTo([]byte("after ping"), Addr{IP4{10, 0, 0, 2}, 5007}, &clk)
	if _, err := srv.RecvTimeout(&clk, time.Second); err != nil {
		t.Fatalf("stack unhealthy after ICMP exchange: %v", err)
	}
}

func TestGlobalLockSerializesVirtualTime(t *testing.T) {
	// With the global lock (the original-LWIP ablation), the stack's
	// per-packet processing serializes across all receive queues; with
	// sharded locks four softirq workers process four flows in parallel
	// virtual time. Saturate four queues and compare the receive
	// makespans.
	const flows, per = 4, 150
	run := func(global bool) uint64 {
		m := vtime.Default()
		da, db := netsim.NewPair(m,
			netsim.Config{Name: "ga", MAC: [6]byte{2, 0, 0, 0, 2, 1}},
			netsim.Config{Name: "gb", MAC: [6]byte{2, 0, 0, 0, 2, 2}, Queues: flows},
		)
		sa, err := New(Config{Name: "a", Dev: devLink{da}, IP: IP4{10, 2, 0, 1}, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := New(Config{Name: "b", Dev: devLink{db}, IP: IP4{10, 2, 0, 2}, Model: m,
			GlobalLock: global})
		if err != nil {
			t.Fatal(err)
		}
		da.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sa.Input(f.Data, clk) })
		db.Start(func(q int, f netsim.Frame, clk *vtime.Clock) { sb.Input(f.Data, clk) })
		// One flow per queue, by destination port.
		db.SetRSS(func(data []byte, queues int) int {
			if len(data) < 14+20+4 || data[23] != 17 {
				return 0
			}
			dport := int(data[14+20+2])<<8 | int(data[14+20+3])
			return dport % queues
		})
		defer func() { sa.Close(); sb.Close(); da.Close(); db.Close() }()

		var socks []*UDPSocket
		for i := 0; i < flows; i++ {
			s, err := sb.UDPBind(uint16(6000 + i))
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, s)
		}
		var wg sync.WaitGroup
		for i := 0; i < flows; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, _ := sa.UDPBind(0)
				var clk vtime.Clock
				for j := 0; j < per; j++ {
					c.SendTo(make([]byte, 400), Addr{IP4{10, 2, 0, 2}, uint16(6000 + i)}, &clk)
				}
			}(i)
		}
		wg.Wait()
		var makespan uint64
		var mu sync.Mutex
		var rg sync.WaitGroup
		for i := 0; i < flows; i++ {
			rg.Add(1)
			go func(i int) {
				defer rg.Done()
				var clk vtime.Clock
				for j := 0; j < per; j++ {
					if _, err := socks[i].RecvTimeout(&clk, 2*time.Second); err != nil {
						t.Errorf("recv flow %d: %v", i, err)
						return
					}
				}
				mu.Lock()
				if clk.Now() > makespan {
					makespan = clk.Now()
				}
				mu.Unlock()
			}(i)
		}
		rg.Wait()
		return makespan
	}
	sharded := run(false)
	global := run(true)
	if global < sharded*3/2 {
		t.Fatalf("global-lock makespan %d should exceed sharded %d by >=1.5x", global, sharded)
	}
}

func TestStackCloseErrorsSockets(t *testing.T) {
	w := newWorld(t, nil)
	srv, _ := w.b.UDPBind(5008)
	var clk vtime.Clock
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.b.Close()
	}()
	if _, err := srv.RecvFrom(&clk, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed stack = %v, want ErrClosed", err)
	}
	if _, err := w.b.UDPBind(5009); !errors.Is(err, ErrClosed) {
		t.Fatalf("bind on closed stack = %v, want ErrClosed", err)
	}
}

func TestTrimmedStackRefusesTCP(t *testing.T) {
	w := newWorld(t, func(a, b *Config) {
		a.EnableTCP = false
		a.EnableICMP = false
	})
	if _, err := w.a.TCPListen(80, 1); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("TCPListen on trimmed stack = %v, want ErrTrimmed", err)
	}
	var clk vtime.Clock
	if _, err := w.a.TCPConnect(Addr{IP4{10, 0, 0, 2}, 80}, &clk); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("TCPConnect on trimmed stack = %v, want ErrTrimmed", err)
	}
}
