package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// layerMetric is one per-layer metric of the traced run. key names the
// exact counter it needs; a workload whose public API does not expose that
// counter reports 0, and the human report marks it n/a.
type layerMetric struct {
	name, unit, key string
	value           func(c *layerCtx) float64
}

// layerCtx holds what the per-layer metrics are computed from: the first
// repetition's exact counters, the untraced and traced repetitions of the
// traced run, the microbenchmarks and the folded CPU profile.
type layerCtx struct {
	first         *rep
	plain, traced []*rep
	micro, cpu    map[string]float64
}

func (c *layerCtx) plainMedian(f func(*rep) float64) float64 { return median(collect(c.plain, f)) }

// pooledRef is the run phases' total CPU time in reference seconds.
func pooledRef(reps []*rep) float64 {
	var run, ref time.Duration
	var chunks int
	for _, r := range reps {
		run, ref, chunks = run+r.run, ref+r.ref, chunks+r.refChunks
	}
	return refSeconds(run, ref/time.Duration(chunks))
}

func counter(name, unit, key string) layerMetric {
	return layerMetric{name, unit, key, func(c *layerCtx) float64 { return c.first.exact[key] }}
}

func perMsg(name, key string) layerMetric {
	return layerMetric{name, "1/msg", key, func(c *layerCtx) float64 { return c.first.exact[key] / c.first.msgs }}
}

func micro(name string) layerMetric {
	return layerMetric{name, "ns", "", func(c *layerCtx) float64 { return c.micro[name] }}
}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		perMsg("sim.events_per_msg", "sim.events"),
		{"sim.ns_per_event", "ns", "sim.events", func(c *layerCtx) float64 {
			return c.plainMedian(func(r *rep) float64 { return float64(r.run.Nanoseconds()) / r.exact["sim.events"] })
		}},
		counter("sim.handoffs", "count", "sim.handoffs"),
		micro("sim.schedule_ns"),
		micro("sim.task_resume_ns"),

		perMsg("uct.progress_per_msg", "uct.progresses"),
		{"uct.empty_poll_frac", "ratio", "uct.progresses", func(c *layerCtx) float64 {
			return c.first.exact["uct.empty_polls"] / c.first.exact["uct.progresses"]
		}},
		micro("uct.empty_progress_ns"),
		micro("uct.put_short_ns"),

		perMsg("ucp.pending_per_msg", "ucp.pending"),
		perMsg("mpi.wait_loops_per_msg", "mpi.wait_loops"),
		micro("mpi.isend_wait_ns"),

		perMsg("pcie.tlps_per_msg", "pcie.tlps"),
		perMsg("pcie.credit_blocked_per_msg", "pcie.credit_blocked"),
		counter("pcie.max_pend", "count", "pcie.max_pend"),
		micro("pcie.tlp_ns"),

		perMsg("nic.frames_per_msg", "nic.frames"),
		perMsg("nic.retransmits_per_msg", "nic.retransmits"),
		counter("nic.rx_held_max", "count", "nic.rx_held_max"),
		counter("nic.qp_fails", "count", "nic.qp_fails"),

		perMsg("topo.credit_stalls_per_msg", "topo.credit_stalls"),
		counter("topo.max_queue", "count", "topo.max_queue"),
		micro("topo.hop_ns"),

		perMsg("memsim.writes_per_msg", "memsim.writes"),
		micro("memsim.write_4k_ns"),

		perMsg("analyzer.records_per_msg", "analyzer.records"),

		counter("faults.dropped", "count", "faults.dropped"),
		counter("faults.corrupted", "count", "faults.corrupted"),

		counter("workload.offered", "msg", "workload.offered"),
		micro("workload.arrival_ns"),

		perMsg("trace.events_per_msg", "trace.events"),
		micro("trace.emit_ns"),
		{"trace.attrib_s", "s", "trace.attributed_msgs", func(c *layerCtx) float64 {
			return c.plainMedian(func(r *rep) float64 { return r.attrib.Seconds() })
		}},
		counter("trace.max_residual_ns", "ns", "trace.max_residual_ns"),

		{"host.alloc_bytes_per_msg", "B/msg", "", func(c *layerCtx) float64 {
			return c.plainMedian(func(r *rep) float64 { return float64(r.allocBytes) / r.msgs })
		}},
		{"host.gc_cycles", "count", "", func(c *layerCtx) float64 {
			return c.plainMedian(func(r *rep) float64 { return float64(r.gcs) })
		}},
		{"bench.trace_overhead_pct", "%", "", func(c *layerCtx) float64 {
			plain, traced := pooledRef(c.plain), pooledRef(c.traced)
			return (traced - plain) / plain * 100
		}},
	}
	for _, l := range cpuLayers {
		ms = append(ms, layerMetric{l + ".cpu_share", "ratio", "", func(c *layerCtx) float64 { return c.cpu[l] }})
	}
	return ms
}

// runTraced is the per-layer run: after a warm-up it alternates untraced
// and traced repetitions (spans plus a CPU profile of every run phase) for
// 60 % of the measuring time, then spends the rest on the layer
// microbenchmarks. The gap between the traced and untraced run times is
// the tracing overhead.
func runTraced(w *workloadDef, p params, seconds float64, outdir string) *result {
	profDir := filepath.Join(outdir, "profile-"+w.name)
	if err := os.RemoveAll(profDir); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	tr := newTracer(profDir)
	b := newBatch(w, p)
	b.rep(nil) // warm-up
	c := &layerCtx{first: b.first, micro: map[string]float64{}}
	start := time.Now()
	for len(c.traced) == 0 || time.Since(start).Seconds() < 0.6*seconds {
		c.plain = append(c.plain, b.rep(nil))
		c.traced = append(c.traced, b.rep(tr))
	}

	// testing.Benchmark grows b.N until one round lasts benchtime; the
	// rounds before it add roughly as much again.
	per := time.Duration(0.4 * seconds / float64(len(micros)) / 2 * float64(time.Second))
	if err := flag.Set("test.benchtime", per.String()); err != nil {
		fatalf("%v", err)
	}
	for _, m := range micros {
		sp := tr.begin("micro/" + m.name)
		res := testing.Benchmark(m.fn)
		tr.end(sp)
		b.attempted++
		if res.N == 0 {
			b.failures = append(b.failures, "microbenchmark "+m.name+" failed")
			continue
		}
		c.micro[m.name] = float64(res.T.Nanoseconds()) / float64(res.N)
	}

	var err error
	if c.cpu, err = foldProfile(tr.profs); err != nil {
		fatalf("%v", err)
	}
	spansPath := filepath.Join(outdir, "spans-"+w.name+".json")
	if err := tr.writeSpans(spansPath); err != nil {
		fatalf("%v", err)
	}

	b.header("traced", len(c.plain)+len(c.traced))
	fmt.Printf("  %d span(s) written to %s; CPU profiles of %d run phase(s) in %s\n",
		len(tr.spans), spansPath, len(tr.profs), profDir)
	metrics := map[string]metric{}
	for _, m := range layerMetrics() {
		v := 0.0
		if _, ok := b.first.exact[m.key]; ok || m.key == "" {
			v = m.value(c)
			fmt.Printf("  %-28s %.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Printf("  %-28s n/a (reported as 0: this workload exposes no %s counter)\n", m.name, m.key)
		}
		metrics[m.name] = metric{v, m.unit}
	}
	b.footer()
	return b.result(metrics)
}
