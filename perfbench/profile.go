package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// pkgBuckets are the packages simulator cost is attributed to. A
// sample's self cost goes to the innermost frame that belongs to the
// module: a listed package, "perfbench" for the benchmark's own code, or
// "other" for the rest of the module. Samples with no module frame at
// all (GC workers, the scheduler) go to "runtime".
var pkgBuckets = []string{
	"rakis", "libos", "sm", "fm", "mm", "xsk", "umem", "ring", "iouring",
	"netstack", "hostos", "netsim", "vtime", "telemetry", "mem", "workloads",
	"runtime", "perfbench", "other",
}

// profiles collects a CPU profile of the measured phase and the
// allocation profile's growth over it.
type profiles struct {
	dir string
	cpu *os.File
}

func (p *profiles) path(name string) string { return filepath.Join(p.dir, name) }

func (p *profiles) start() error {
	if err := writeAllocs(p.path("allocs0.pb.gz")); err != nil {
		return err
	}
	f, err := os.Create(p.path("cpu.pb.gz"))
	if err != nil {
		return err
	}
	p.cpu = f
	return pprof.StartCPUProfile(f)
}

func (p *profiles) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	return writeAllocs(p.path("allocs1.pb.gz"))
}

// writeAllocs writes the allocation profile as of now (the GC publishes
// the profile's counts).
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shares reads the profiles back with the toolchain's pprof and returns
// each bucket's share of CPU time and of allocated objects.
func (p *profiles) shares() (cpu, allocs map[string]float64, err error) {
	c, err := bucketProfile(p.path("cpu.pb.gz"), "cpu")
	if err != nil {
		return nil, nil, err
	}
	a0, err := bucketProfile(p.path("allocs0.pb.gz"), "alloc_objects")
	if err != nil {
		return nil, nil, err
	}
	a1, err := bucketProfile(p.path("allocs1.pb.gz"), "alloc_objects")
	if err != nil {
		return nil, nil, err
	}
	for k := range a1 {
		a1[k] -= a0[k]
	}
	return fractions(c), fractions(a1), nil
}

func fractions(m map[string]float64) map[string]float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	out := make(map[string]float64, len(pkgBuckets))
	for _, b := range pkgBuckets {
		if total > 0 {
			out[b] = m[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}

// bucketProfile runs `go tool pprof -raw` on one profile and sums the
// named sample value per bucket.
func bucketProfile(path, value string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	type sample struct {
		v    float64
		locs []int
	}
	var (
		samples []sample
		locs    = map[int][]string{} // location id -> functions, innermost first
		col     = -1
		section string
		lastLoc int
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		switch section {
		case "Samples":
			if col < 0 {
				for i, h := range strings.Fields(line) {
					if strings.HasPrefix(h, value+"/") {
						col = i
					}
				}
				if col < 0 {
					return nil, fmt.Errorf("%s: no %s sample value", path, value)
				}
				continue
			}
			head, tail, ok := strings.Cut(line, ":")
			if !ok || strings.Contains(head, "[") {
				continue // a label line such as bytes:[96]
			}
			vals := strings.Fields(head)
			if col >= len(vals) {
				continue
			}
			v, err := strconv.ParseFloat(vals[col], 64)
			if err != nil {
				continue
			}
			s := sample{v: v}
			for _, f := range strings.Fields(tail) {
				id, err := strconv.Atoi(f)
				if err == nil {
					s.locs = append(s.locs, id)
				}
			}
			samples = append(samples, s)
		case "Locations":
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			if strings.HasSuffix(f[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(f[0], ":"))
				if err != nil || len(f) < 4 {
					continue
				}
				lastLoc = id
				locs[id] = append(locs[id], f[3])
			} else {
				// An inlined caller of the previous location's frame.
				locs[lastLoc] = append(locs[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, s := range samples {
		sums[bucketOf(s.locs, locs)] += s.v
	}
	return sums, nil
}

// bucketOf returns the bucket of the innermost module frame of a stack.
func bucketOf(stack []int, locs map[int][]string) string {
	for _, id := range stack {
		for _, fn := range locs[id] {
			if b, ok := fnBucket(fn); ok {
				return b
			}
		}
	}
	return "runtime"
}

func fnBucket(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "perfbench", true
	case pkg == "rakis":
		return "rakis", true
	case strings.HasPrefix(pkg, "rakis/internal/"):
		name := strings.TrimPrefix(pkg, "rakis/internal/")
		for _, b := range pkgBuckets {
			if b == name {
				return b, true
			}
		}
		return "other", true
	case strings.HasPrefix(pkg, "rakis/"):
		return "other", true
	}
	return "", false
}
