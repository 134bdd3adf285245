package main

import (
	"sort"
	"strings"

	"rakis/internal/telemetry"
	"rakis/internal/vtime"
)

// metric is one named result with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// compMetrics names the vtime cost components after the layer that
// spends them.
var compMetrics = map[string]string{
	"stack":    "netstack.stack_vcyc_per_op",
	"copy":     "mem.copy_vcyc_per_op",
	"validate": "umem.validate_vcyc_per_op",
	"ring":     "ring.ring_vcyc_per_op",
	"api":      "rakis.api_vcyc_per_op",
	"wait":     "rakis.wait_vcyc_per_op",
	"exit":     "libos.exit_vcyc_per_op",
	"other":    "workload.other_vcyc_per_op",
}

// registryLayers maps one registry snapshot and the thread cycle ledgers
// of a traced run onto the per-layer metrics. ops is the run's op count,
// the base of every per-op ratio.
func registryLayers(bd telemetry.Breakdown, ops float64) []metric {
	vals := map[string]uint64{}
	hists := map[string]telemetry.HistSnapshot{}
	for _, m := range bd.Metrics {
		if m.Hist != nil {
			hists[m.Name] = *m.Hist
		} else {
			vals[m.Name] = m.Value
		}
	}
	// sum adds every scalar whose name has the prefix and suffix.
	sum := func(prefix, suffix string) float64 {
		var s float64
		for n, v := range vals {
			if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
				s += float64(v)
			}
		}
		return s
	}
	v := func(name string) float64 { return float64(vals[name]) }
	per := func(x float64) float64 { return ratio(x, ops) }

	// Thread ledgers: busy is everything but waiting.
	type ledger struct{ total, wait float64 }
	threads := func(prefix string) ledger {
		var l ledger
		for _, t := range bd.Threads {
			if strings.HasPrefix(t.Thread, prefix) {
				l.total += float64(t.Cycles)
				l.wait += float64(t.Comp[vtime.CompWait.String()])
			}
		}
		return l
	}
	busy := func(prefix string) float64 { l := threads(prefix); return per(l.total - l.wait) }

	var out []metric
	add := func(name string, value float64, unit string) {
		out = append(out, metric{name, value, unit})
	}

	// Component split over the enclave clocks (application threads and
	// FM pumps); the eight components sum to their total.
	comp := map[string]float64{}
	for _, t := range bd.Threads {
		if strings.HasPrefix(t.Thread, "app.") || strings.HasPrefix(t.Thread, "fm.") {
			for c, cyc := range t.Comp {
				comp[c] += float64(cyc)
			}
		}
	}
	for c := 0; c < vtime.NumComp; c++ {
		name := vtime.Comp(c).String()
		add(compMetrics[name], per(comp[name]), "cyc/op")
	}

	fm := threads("fm.")
	add("fm.busy_vcyc_per_op", per(fm.total-fm.wait), "cyc/op")
	add("fm.wait_frac", ratio(fm.wait, fm.total), "frac")
	add("fm.rx_pkts_per_op", per(sum("fm.xsk", ".rx_pkts")), "pkts/op")
	var depth telemetry.HistSnapshot
	for n, h := range hists {
		if strings.HasPrefix(n, "fm.xsk") && strings.HasSuffix(n, ".qdepth") {
			depth = depth.Merge(h)
		}
	}
	add("fm.qdepth_mean", depth.Mean(), "entries")
	add("fm.qdepth_p99", float64(depth.Quantile(0.99)), "entries")
	add("sm.tx_pkts_per_op", per(sum("sm.xsk", ".tx_pkts")), "pkts/op")
	add("sm.batched_msgs_per_call", ratio(v("vtime.batched_msgs"), v("vtime.batch_calls")), "msgs/call")

	add("mm.wakeups_per_op", per(v("vtime.wakeups")), "calls/op")
	supp := sum("mm.xsk", ".wakeups_suppressed")
	add("mm.wakeups_suppressed_frac", ratio(supp, supp+sum("mm.xsk", ".wakeups")), "frac")
	add("mm.busy_vcyc_per_op", busy("mm"), "cyc/op")
	add("hostos.syscalls_per_op", per(v("vtime.syscalls")), "calls/op")

	add("hostos.softirq_busy_vcyc_per_op", busy("softirq."), "cyc/op")
	add("hostos.napi_busy_vcyc_per_op", busy("napi."), "cyc/op")
	add("hostos.txdrv_busy_vcyc_per_op", busy("txdrv."), "cyc/op")
	// Every server frame crosses the NIC through an XSK in these
	// environments, so the shard RX and TX counts are the frames the
	// server NIC carried.
	add("netsim.frames_per_op", per(sum("fm.xsk", ".rx_pkts")+sum("sm.xsk", ".tx_pkts")), "frames/op")

	add("iouring.ops_per_op", per(v("vtime.iouring_ops")), "ops/op")
	add("libos.calls_per_op", per(v("vtime.libos_calls")), "calls/op")
	add("libos.exits_per_op", per(v("vtime.enclave_exits")), "exits/op")

	add("xsk.refusals", sum("xsk", ".refusals"), "count")
	add("ring.violations", v("vtime.ring_violations")+v("vtime.umem_violations")+v("vtime.cqe_violations"), "count")
	add("iouring.submit_retries", v("vtime.submit_retries"), "count")
	add("mm.wakeup_retries", v("vtime.wakeup_retries"), "count")
	add("netstack.tcp_refused", v("vtime.tcp_refused"), "count")
	add("netsim.drops", sum("netsim.", ".dropped"), "count")
	return out
}

// callLayers turns the decorator's per-call records into calls per op,
// median wall ns and mean virtual cycles per call, plus the VFS append
// growth: mean pwrite wall time over the last tenth of each file's
// appends divided by the first tenth. Only file-rw issues pwrites, all
// of them appends, so the i-th pwrite is append i%fileCycleWrites of its
// file.
func callLayers(tr *tracer, ops float64) []metric {
	var all [numCalls]callStats
	for _, th := range tr.threads() {
		for k := range th.calls {
			all[k].wall = append(all[k].wall, th.calls[k].wall...)
			all[k].vcyc += th.calls[k].vcyc
		}
	}
	var out []metric
	for k, cs := range all {
		n := float64(len(cs.wall))
		sorted := append([]uint32(nil), cs.wall...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := 0.0
		if len(sorted) > 0 {
			med = float64(sorted[len(sorted)/2])
		}
		name := "rakis." + callNames[k]
		out = append(out,
			metric{name + ".calls_per_op", ratio(n, ops), "calls/op"},
			metric{name + ".wall_ns", med, "ns"},
			metric{name + ".vcyc", ratio(float64(cs.vcyc), n), "cyc"},
		)
	}
	var first, last []uint32
	for i, ns := range all[callPwrite].wall {
		switch pos := i % fileCycleWrites; {
		case pos < fileCycleWrites/10:
			first = append(first, ns)
		case pos >= fileCycleWrites-fileCycleWrites/10:
			last = append(last, ns)
		}
	}
	growth := ratio(mean32(last), mean32(first))
	out = append(out, metric{"hostos.vfs.pwrite_growth", growth, "x"})
	return out
}

func mean32(xs []uint32) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return ratio(s, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
