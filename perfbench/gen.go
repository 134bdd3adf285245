package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// inputs derives every input the workloads send from the run's seed:
// echo payloads, keys, values and the GET/SET sequence, file offsets,
// op sizes and file contents. The program under test sees only these
// bytes.
type inputs struct {
	seed uint64
	// values is the pool SET draws its ~1 KiB values from.
	values [][]byte
}

const (
	kvValueBytes = 1024
	kvValues     = 64
)

func newInputs(seed uint64) *inputs {
	in := &inputs{seed: seed}
	r := in.rng(0xfeed)
	// Values are printable and free of CR/LF, as the inline protocol
	// requires.
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/"
	for i := 0; i < kvValues; i++ {
		v := make([]byte, kvValueBytes-16+r.IntN(32))
		for j := range v {
			v[j] = alphabet[r.IntN(len(alphabet))]
		}
		in.values = append(in.values, v)
	}
	return in
}

// rng returns the op-choice stream of one client (stream ids are fixed
// per workload and client).
func (in *inputs) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(in.seed, stream))
}

// splitmix64 is the stateless mixer behind the content functions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes the content stream keyed by key into b.
func (in *inputs) fill(b []byte, key uint64) {
	x := splitmix64(in.seed ^ splitmix64(key))
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(x))
		copy(b[i:], tail[:])
	}
}

// echoPayload writes the datagram for (flow, seq): the flow id and the
// sequence number, then seed-derived bytes.
func (in *inputs) echoPayload(b []byte, flow, seq uint32) {
	binary.BigEndian.PutUint32(b[0:], flow)
	binary.BigEndian.PutUint32(b[4:], seq)
	in.fill(b[8:], 1<<62|uint64(flow)<<32|uint64(seq))
}

// fileBytes writes the content of file cycle at [off, off+len(b)): each
// 8-byte word is derived from the seed, the cycle and the word's offset,
// so any range can be regenerated on its own, and a read that returns an
// earlier cycle's bytes is caught.
func (in *inputs) fileBytes(b []byte, cycle uint64, off int64) {
	var word [8]byte
	for i := 0; i < len(b); {
		w := uint64(off+int64(i)) / 8
		binary.LittleEndian.PutUint64(word[:], splitmix64(in.seed^splitmix64(2<<62|cycle<<40|w)))
		i += copy(b[i:], word[(off+int64(i))%8:])
	}
}
