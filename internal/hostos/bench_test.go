package hostos

import (
	"fmt"
	"testing"

	"rakis/internal/iouring"
	"rakis/internal/vtime"
)

// BenchmarkInodeAppend appends 4 KiB chunks until the file reaches its
// final size, then starts over on the same inode with Truncate(0), as an
// O_TRUNC reopen does. With amortised growth ns/op does not grow with
// the file size, except where the file outgrows the CPU caches and
// memory bandwidth sets the cost of the copy itself. A per-append
// reallocation makes ns/op grow linearly with the file.
func BenchmarkInodeAppend(b *testing.B) {
	chunk := make([]byte, 4096)
	for _, size := range []int64{64 << 10, 1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			ino := NewVFS().Create("/f")
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			var off int64
			for range b.N {
				if off+int64(len(chunk)) > size {
					ino.Truncate(0)
					off = 0
				}
				ino.WriteAt(chunk, off)
				off += int64(len(chunk))
			}
		})
	}
}

// BenchmarkUringFileOp is one pwrite or pread round trip through the
// host file path: FM submit, io_uring_enter, the kernel worker's
// execution against the VFS, and the FM's certified completion.
func BenchmarkUringFileOp(b *testing.B) {
	const n = 4096
	for _, tc := range []struct {
		name string
		op   iouring.Op
	}{
		{"pwrite", iouring.OpWrite},
		{"pread", iouring.OpRead},
	} {
		b.Run(tc.name, func(b *testing.B) {
			u := newBareUring(b, "/f", n)
			var clk vtime.Clock
			u.roundTrip(b, iouring.OpWrite, 0, n, &clk) // give pread data to hit
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if res := u.roundTrip(b, tc.op, 0, n, &clk); res != n {
					b.Fatalf("%s res = %d", tc.name, res)
				}
			}
		})
	}
}
