package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/uct"
)

// rep is one repetition of a workload: every job's setup and run times,
// the simulated messages completed, the correctness verdicts and the exact
// counters read back from each layer's public API.
type rep struct {
	p  params
	tr *tracer // nil when untraced

	// setup is the set-up phases' CPU time on the benchmark's own thread
	// (the runtime's background threads are left out); run is the run
	// phases' CPU time over the whole process; runWall is the run phases'
	// wall time.
	setup, run, runWall time.Duration
	// ref sums, over run phases, the mean CPU time of the two reference
	// chunks run just before and just after the phase; refChunks counts
	// the run phases, so ref/refChunks is the host's current cost of one
	// chunk (see ref.go).
	ref       time.Duration
	refChunks int
	msgs      float64
	jobs      int
	failures  []string // one entry per failed job
	exact     exact

	// modelErrPct is the largest model-vs-simulated error (paper-8b).
	modelErrPct float64
	// attrib is the CPU time spent in stall attribution (openloop-mixed).
	attrib time.Duration
	// allocBytes and gcs are the Go runtime's allocation volume and GC
	// cycles during run phases.
	allocBytes uint64
	gcs        uint32

	curJob   string
	jobFails []string
}

func newRep(p params, tr *tracer) *rep {
	return &rep{p: p, tr: tr, exact: exact{}}
}

// job runs one job: its phases call r.phase, its checks r.failf.
func (r *rep) job(name string, body func()) {
	r.jobs++
	r.curJob, r.jobFails = name, nil
	sp := r.tr.begin(name)
	body()
	r.tr.end(sp)
	if len(r.jobFails) > 0 {
		r.failures = append(r.failures, name+": "+strings.Join(r.jobFails, "; "))
	}
}

// phase times one phase of the current job. setup and run accumulate into
// the repetition's setup and run times (the CPU profile covers run phases
// only), and every run phase sits between two reference chunks; check and
// readout are traced but not timed.
func (r *rep) phase(kind string, f func()) {
	sp := r.tr.begin(r.curJob + "/" + kind)
	defer r.tr.end(sp)
	switch kind {
	case "setup":
		c0 := cpuTime(threadClock)
		f()
		r.setup += cpuTime(threadClock) - c0
	case "run":
		a0, g0 := allocStats()
		ref0 := refCPU()
		r.tr.startProfile()
		t0, c0 := time.Now(), cpuTime(processClock)
		f()
		r.run += cpuTime(processClock) - c0
		r.runWall += time.Since(t0)
		r.tr.stopProfile()
		r.ref += (ref0 + refCPU()) / 2
		r.refChunks++
		a1, g1 := allocStats()
		r.allocBytes += a1 - a0
		r.gcs += g1 - g0
	default:
		f()
	}
}

func (r *rep) failf(format string, args ...any) {
	r.jobFails = append(r.jobFails, fmt.Sprintf(format, args...))
}

// model checks one of the paper's model-vs-observed validations against
// the paper's 5 % and records the simulated value as an exact result.
func (r *rep) model(name string, modelNs, simNs float64) {
	r.exact["paper."+name+"_ns"] = simNs
	errPct := math.Abs(modelNs-simNs) / simNs * 100
	r.modelErrPct = math.Max(r.modelErrPct, errPct)
	if !(errPct <= 5) {
		r.failf("%s: simulated %.2f ns is %.2f %% from the model's %.2f ns (limit 5 %%)", name, simNs, errPct, modelNs)
	}
}

// drained checks the invariants every job must end with: no fabric frame or
// PCIe packet still borrowed from its pool, and no goroutine handoff.
func (r *rep) drained(sys *node.System) {
	if n := sys.Topo().InUseFrames(); n != 0 {
		r.failf("pools: %d fabric frame(s) not returned", n)
	}
	for _, n := range sys.Nodes {
		if tlps, dllps := n.Link.InUsePackets(); tlps != 0 || dllps != 0 {
			r.failf("pools: node %d PCIe link holds %d TLP(s), %d DLLP(s)", n.ID, tlps, dllps)
		}
	}
	if h := sys.K.Handoffs(); h != 0 {
		r.failf("sim: %d goroutine handoff(s), want 0", h)
	}
}

// readSystem adds the counters every layer below the software stack
// exposes on a system the benchmark built.
func (r *rep) readSystem(sys *node.System) {
	e := r.exact
	e.add("sim.events", float64(sys.K.Fired()))
	e.add("sim.handoffs", float64(sys.K.Handoffs()))
	for _, n := range sys.Nodes {
		down, up := n.Link.Sent()
		e.add("pcie.tlps", float64(down+up))
		bd, bu := n.Link.Blocked()
		e.add("pcie.credit_blocked", float64(bd+bu))
		pd, pu := n.Link.MaxPend()
		e.max("pcie.max_pend", float64(max(pd, pu)))
		s := n.NIC.Stats()
		e.add("nic.frames", float64(s.TxFrames))
		e.add("nic.retransmits", float64(s.Retransmits+s.RnrRetransmits))
		e.add("nic.qp_fails", float64(s.QPFails))
		e.max("nic.rx_held_max", float64(n.NIC.RxHeldMax()))
		e.add("memsim.writes", float64(n.Mem.Writes()))
		e.add("analyzer.records", float64(n.Tap.Len()))
	}
	t := sys.Topo()
	e.add("topo.credit_stalls", float64(t.CreditStalls()))
	e.max("topo.max_queue", float64(t.MaxSwitchQueue()))
	var dropped, corrupted, flaps uint64 // zero without a fault injector
	if sys.Faults != nil {
		dropped, corrupted, flaps = sys.Faults.Totals()
	}
	e.add("faults.dropped", float64(dropped))
	e.add("faults.corrupted", float64(corrupted))
	e.add("faults.flaps", float64(flaps))
	var traced uint64 // zero with the tracer off
	if tr := sys.Tracer(); tr != nil {
		traced = tr.Emitted()
	}
	e.add("trace.events", float64(traced))
}

// readUct adds the LLP progress counters of workers a job exposes.
func (r *rep) readUct(ws ...*uct.Worker) {
	for _, w := range ws {
		r.exact.add("uct.posts", float64(w.Stats.Posts))
		r.exact.add("uct.progresses", float64(w.Stats.Progresses))
		r.exact.add("uct.empty_polls", float64(w.Stats.EmptyPolls))
	}
}

// readRanks adds the MPI, UCP and UCT counters of the ranks a job exposes.
func (r *rep) readRanks(ranks ...*mpi.Rank) {
	for _, rk := range ranks {
		r.exact.add("mpi.wait_loops", float64(rk.Stats.WaitLoops))
		r.exact.add("ucp.pending", float64(rk.Worker.Stats.PendingExecuted))
		r.readUct(rk.Worker.Uct)
	}
}
