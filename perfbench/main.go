// Command perfbench is the repository benchmark: it boots RAKIS worlds
// through experiments.NewWorld, drives one of three seeded closed-loop
// workloads through the sys.Sys thread surface, checks every reply, and
// prints the end-to-end metrics (modelled plane and simulator plane) or,
// with -trace 1, the per-layer metrics of a traced run. See README.md.
//
// Usage:
//
//	perfbench -workload udp-rr|tcp-kv|file-rw -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rakis/internal/experiments"
	"rakis/internal/sys"
	"rakis/internal/telemetry"
)

// workload is one benchmark input: a world configuration and the load
// run on it.
type workload struct {
	name string
	opts experiments.Options
	// window is the per-flow pipelining depth of each closed-loop
	// client.
	window int
	// warmOps completed ops precede the measured phase.
	warmOps int
	// maxSeconds bounds the measured phase where the server gives up
	// on its own (0: no bound).
	maxSeconds float64
	start      func(w *experiments.World, in *inputs, wrap func(sys.Sys) sys.Sys, window int, l *load) error
}

var workloadList = []*workload{
	{
		name:   "udp-rr",
		opts:   experiments.Options{Env: experiments.RakisSGX, NumXSKs: 2},
		window: 16, warmOps: 2000,
		start: startUDP,
	},
	{
		name:   "tcp-kv",
		opts:   experiments.Options{Env: experiments.RakisSGXXskTCP, NumXSKs: 2},
		window: 8, warmOps: 2*kvKeys + 1000,
		// The Redis server stops itself 60 s after it starts.
		maxSeconds: 45,
		start:      startKV,
	},
	{
		name:   "file-rw",
		opts:   experiments.Options{Env: experiments.RakisSGX},
		window: 1, warmOps: 200,
		start: startFile,
	},
}

// untraced hands the server threads to the workload as they are.
func untraced(t sys.Sys) sys.Sys { return t }

// setupRuns is how many worlds an untraced run sets up; setup_s is
// their mean. A world's set-up time is bimodal today (see README.md), and
// a median would flip between the two modes from run to run.
const setupRuns = 24

// Roles of a child process: each boots one world of its own, prints its
// figures as one JSON object and exits. See child.
const (
	roleSetup    = "setup"
	roleBaseline = "baseline"
)

func main() {
	name := flag.String("workload", "", "udp-rr, tcp-kv or file-rw")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in wall seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the span file and profiles")
	role := flag.String("role", "", "set by the benchmark for its child processes: setup or baseline")
	flag.Parse()

	var wl *workload
	for _, w := range workloadList {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload udp-rr|tcp-kv|file-rw, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	if wl.maxSeconds > 0 && *seconds > wl.maxSeconds {
		fmt.Fprintf(os.Stderr, "perfbench: %s measures at most %.0fs\n", wl.name, wl.maxSeconds)
		os.Exit(2)
	}
	in := newInputs(*seed)
	d := time.Duration(*seconds * float64(time.Second))
	if *role != "" {
		if err := runChild(*role, wl, in, d); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("perfbench: %s seed=%d closed loop, window %d, measured %.0fs\n",
		wl.name, *seed, wl.window, *seconds)

	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = runPlain(wl, in, d)
	} else {
		res, err = runTraced(wl, in, d, *out, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.extra {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, m := range res.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{true, res.attempted, res.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is what one invocation reports. metrics go into the JSON line;
// extra is printed only. A run that saw wrong output reports an error
// instead, so a printed result is always a correct one.
type result struct {
	attempted, failed int64
	metrics, extra    []metric
}

// measured is the outcome of one session's measured phase. Throughput
// and latency are medians over its sub-windows; CPU and allocations per
// op are taken over the whole phase, which spans more GC cycles than a
// sub-window does.
type measured struct {
	s *session
	// ops and failed count the whole measured phase; attempted is
	// ops + failed.
	ops, failed int64
	wall, cpu   time.Duration
	exits       uint64
	mallocs     uint64
	samples     int
	med         map[string]float64
}

// runSession sets a world up, measures it for d and tears it down.
func runSession(wl *workload, in *inputs, d time.Duration, sink *telemetry.Sink, wrap func(sys.Sys) sys.Sys, prof *profiles) (measured, error) {
	s, err := startSession(wl, in, sink, wrap)
	if err != nil {
		return measured{}, err
	}
	slots, err := s.measure(d, prof)
	stopErr := s.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return measured{s: s}, err
	}
	m := measured{s: s}
	per := map[string][]float64{}
	for i, ss := range slots {
		var ops int64
		var vkops float64
		var lat []uint64
		for _, c := range s.l.clients {
			cs := &c.slots[i]
			ops += cs.ops
			lat = append(lat, cs.lat...)
			if span := cs.vEnd - cs.vStart; cs.ops > 0 && span > 0 {
				vkops += float64(cs.ops) / s.w.Model.Seconds(span) / 1e3
			}
		}
		if ops == 0 {
			return m, fmt.Errorf("%s: no op completed in measured sub-window %d", wl.name, i+1)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		us := func(q float64) float64 { return s.w.Model.Seconds(1) * bandMean(lat, q) * 1e6 }
		n := float64(ops)
		per["vkops"] = append(per["vkops"], vkops)
		per["vlat_p50_us"] = append(per["vlat_p50_us"], us(0.50))
		per["vlat_p99_us"] = append(per["vlat_p99_us"], us(0.99))
		per["wall_kops"] = append(per["wall_kops"], n/ss.wall.Seconds()/1e3)
		m.ops += ops
		m.samples += len(lat)
		m.wall += ss.wall
		m.exits += ss.exits
		m.cpu += ss.cpu
		m.mallocs += ss.mallocs
	}
	for _, c := range s.l.clients {
		m.failed += c.mfailed
	}
	m.med = map[string]float64{}
	for k, v := range per {
		m.med[k] = median(v)
	}
	return m, nil
}

// quantileBand is the half-width of the band bandMean averages over.
const quantileBand = 0.005

// bandMean estimates quantile q of a sorted sample as the mean of the
// samples ranked within q±quantileBand. Virtual latencies are whole
// cycles and bunch into long runs of equal values; a single order
// statistic then sits inside one run and reads the same on every run,
// while the band mean moves with the sample around it.
func bandMean(sorted []uint64, q float64) float64 {
	last := float64(len(sorted) - 1)
	lo := int(math.Floor(math.Max(q-quantileBand, 0) * last))
	hi := int(math.Ceil(math.Min(q+quantileBand, 1) * last))
	var sum float64
	for _, x := range sorted[lo : hi+1] {
		sum += float64(x)
	}
	return sum / float64(hi-lo+1)
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// runPlain is the untraced run: the end-to-end metrics of one measured
// world, and the mean set-up time of setupRuns worlds. Each extra
// set-up runs first, in a child process of its own, while this process
// has no world yet; the measured world is then the first world of this
// process. So no figure is taken beside the goroutines and heap a closed
// world leaves behind.
func runPlain(wl *workload, in *inputs, d time.Duration) (result, error) {
	var setups []float64
	for i := 1; i < setupRuns; i++ {
		var c setupFigures
		if err := child(roleSetup, &c); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, c.SetupS)
	}
	m, err := runSession(wl, in, d, nil, untraced, nil)
	if err != nil {
		return result{}, err
	}
	// The world's segments are allocated untouched and cost no resident
	// memory, except in the rare process where the whole 256 MiB
	// untrusted segment is already resident when NewWorld returns.
	// Counting from the booted world keeps that event out of the load's
	// footprint.
	peakRSS := peakRSSMB() - m.s.bootRSS
	setups = append(setups, m.s.setup.Seconds())

	attempted := m.ops + m.failed
	res := result{attempted: attempted, failed: m.failed}
	res.metrics = []metric{
		{"vkops", m.med["vkops"], "kop/s"},
		{"vlat_p50_us", m.med["vlat_p50_us"], "us"},
		{"vlat_p99_us", m.med["vlat_p99_us"], "us"},
		{"wall_kops", m.med["wall_kops"], "kop/s"},
		{"cpu_us_per_op", float64(m.cpu.Microseconds()) / float64(m.ops), "us"},
		{"allocs_per_op", float64(m.mallocs) / float64(m.ops), "count"},
		{"peak_rss_mb", peakRSS, "MB"},
		{"setup_s", mean(setups), "s"},
	}
	res.extra = []metric{
		{"clients", float64(len(m.s.l.clients)), "count"},
		{"exits_per_op", float64(m.exits) / float64(m.ops), "exits/op"},
		{"fail_frac", float64(m.failed) / float64(attempted), "frac"},
		{"vlat_samples", float64(m.samples), "count"},
	}
	return res, nil
}

// runTraced measures an untraced world in a child process (the
// overhead baseline, and the world whose teardown is checked for leaks),
// then a traced one, the first world of this process: its server threads
// wrapped in the timing decorator, the telemetry sink armed and CPU and
// allocation profiles taken over the measured phase.
func runTraced(wl *workload, in *inputs, d time.Duration, outDir string, seed uint64) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	var base baselineFigures
	if err := child(roleBaseline, &base); err != nil {
		return result{}, fmt.Errorf("untraced: %w", err)
	}

	sink := telemetry.NewSink()
	tr := newTracer()
	prof := &profiles{dir: outDir}
	m, err := runSession(wl, in, d, sink, tr.wrap, prof)
	if err != nil {
		return result{}, fmt.Errorf("traced: %w", err)
	}
	if err := sink.CheckConservation(); err != nil {
		return result{}, err
	}
	bd := sink.Breakdown()
	ops, failed := m.s.l.totals()
	runOps := float64(ops)

	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.csv", wl.name, seed))
	kept, dropped, err := tr.writeSpans(spanPath)
	if err != nil {
		return result{}, err
	}
	cpu, allocs, err := prof.shares()
	if err != nil {
		return result{}, err
	}

	var out []metric
	out = append(out, callLayers(tr, runOps)...)
	out = append(out, registryLayers(bd, runOps)...)
	for _, b := range pkgBuckets {
		out = append(out, metric{b + ".cpu_frac", cpu[b], "frac"}, metric{b + ".allocs_frac", allocs[b], "frac"})
	}
	tracedNsPerOp := float64(m.wall.Nanoseconds()) / float64(m.ops)
	out = append(out,
		metric{"world.boot_s", base.BootS, "s"},
		metric{"world.ready_s", base.ReadyS, "s"},
		metric{"world.leaked_goroutines", float64(base.LeakedGoroutines), "count"},
		metric{"world.retained_heap_mb", base.RetainedHeapMB, "MB"},
		metric{"trace.overhead_wall_frac", tracedNsPerOp/base.NsPerOp - 1, "frac"},
	)
	return result{
		attempted: ops + failed,
		failed:    failed,
		metrics:   out,
		extra: []metric{
			{"clients", float64(len(m.s.l.clients)), "count"},
			{"traced_ops", runOps, "count"},
			{"spans_kept", float64(kept), "count"},
			{"spans_dropped", float64(dropped), "count"},
		},
	}, nil
}

// settle waits briefly for the closed world's goroutines to exit, then
// reports how many goroutines and how much heap (after GC) remain above
// the levels measured before it booted.
func settle(g0 int, h0 uint64) (goroutines int, heapMB float64) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine() - g0, (float64(ms.HeapAlloc) - float64(h0)) / (1 << 20)
}

// setupFigures is what a set-up child reports.
type setupFigures struct {
	SetupS float64 `json:"setup_s"`
}

// baselineFigures is what a baseline child reports: its world's wall
// time per measured op, its set-up split, and what its Close left
// behind.
type baselineFigures struct {
	NsPerOp          float64 `json:"ns_per_op"`
	BootS            float64 `json:"boot_s"`
	ReadyS           float64 `json:"ready_s"`
	LeakedGoroutines int     `json:"leaked_goroutines"`
	RetainedHeapMB   float64 `json:"retained_heap_mb"`
}

// child runs this binary again, with the same flags, in a role that
// boots one world of its own, and decodes the JSON object the child
// prints. It waits for the child to exit.
func child(role string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append(os.Args[1:], "-role", role)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	return json.Unmarshal(out, v)
}

// runChild is the body of a child process: one world, set up only
// (roleSetup) or measured untraced for d and then checked for leaks
// (roleBaseline). It prints its figures as one JSON object.
func runChild(role string, wl *workload, in *inputs, d time.Duration) error {
	var v any
	switch role {
	case roleSetup:
		s, err := startSession(wl, in, nil, untraced)
		if err != nil {
			return err
		}
		if err := s.stop(); err != nil {
			return err
		}
		v = setupFigures{s.setup.Seconds()}
	case roleBaseline:
		runtime.GC()
		g0 := runtime.NumGoroutine()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h0 := ms.HeapAlloc
		m, err := runSession(wl, in, d, nil, untraced, nil)
		if err != nil {
			return err
		}
		f := baselineFigures{
			NsPerOp: float64(m.wall.Nanoseconds()) / float64(m.ops),
			BootS:   m.s.boot.Seconds(),
			ReadyS:  (m.s.setup - m.s.boot).Seconds(),
		}
		// m is dead from here on, so what stays reachable is only what
		// the closed world itself leaves behind.
		f.LeakedGoroutines, f.RetainedHeapMB = settle(g0, h0)
		v = f
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
