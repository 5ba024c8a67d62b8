package main

import (
	_ "embed"

	"breakband"
	"breakband/internal/config"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/osu"
	"breakband/internal/perftest"
	"breakband/internal/topo"
	"breakband/internal/uct"
	"breakband/internal/workload"
)

// workloadDef is one benchmark input: run executes one repetition of its jobs.
type workloadDef struct {
	name string
	run  func(r *rep)
}

// The benchmark's two workloads each join two parts, so each run is long
// enough for steady figures within the benchmark's time budget while every
// layer is still exercised: closed-loop is paper-8b then incast-4k on
// single-switch systems, fat-tree is chaos then openloop-mixed on the
// 8-node fat-tree. The parts can be run alone to look at one of them.
var workloads = map[string]*workloadDef{
	"closed-loop":    {"closed-loop", func(r *rep) { paper8b(r); incast4k(r) }},
	"fat-tree":       {"fat-tree", func(r *rep) { chaos(r); openloopMixed(r) }},
	"paper-8b":       {"paper-8b", paper8b},
	"incast-4k":      {"incast-4k", incast4k},
	"chaos":          {"chaos", chaos},
	"openloop-mixed": {"openloop-mixed", openloopMixed},
}

// workloadNames lists the benchmark's workloads, the ones --workload all
// runs; partNames lists the parts they join.
func workloadNames() []string { return []string{"closed-loop", "fat-tree"} }

func partNames() []string { return []string{"paper-8b", "incast-4k", "chaos", "openloop-mixed"} }

// Workload sizes. On a 2-vCPU Xeon VM one repetition of each part takes
// half a second to a second of CPU time (chaos two to five).
const (
	putBwIters    = 50_000
	amLatIters    = 5_000
	osuWindows    = 500
	osuLatIters   = 5_000
	paperWarmup   = 100
	incastSenders = 4
	incastIters   = 5_000
	incastWarmup  = 16
	incastBytes   = 4096
)

// calibrated is the paper's TX2/CX4 system without timing noise, so every
// simulated outcome is exact and the seed only matters where a workload
// draws random inputs of its own.
func calibrated(seed uint64) *config.Config {
	return config.TX2CX4(config.NoiseOff, seed, true)
}

// paper8b is the paper's small-message path on fresh two-node systems:
// put_bw (§4.2), am_lat (§4.3), and OSU message rate and latency over
// MPICH->UCP->UCT (§6), all with 8-byte messages, each checked against the
// paper's model within its 5 %.
func paper8b(r *rep) {
	paperJob(r, "put_bw", config.TabLLPInjModel, func(sys *node.System) (float64, func()) {
		res := perftest.PutBw(sys, perftest.Options{Iters: putBwIters, Warmup: paperWarmup})
		return res.MeanInjNs, func() {
			r.readUct(res.Worker)
			r.msgs += putBwIters + paperWarmup
		}
	})
	paperJob(r, "am_lat", config.TabLLPLatencyModel, func(sys *node.System) (float64, func()) {
		res := perftest.AmLat(sys, perftest.Options{Iters: amLatIters, Warmup: paperWarmup})
		return res.AdjustedNs, func() {
			r.readUct(res.W0, res.W1)
			r.msgs += 2 * (amLatIters + paperWarmup) // ping and pong
		}
	})
	paperJob(r, "osu_mr", breakband.PaperComponents().OverallInjection(), func(sys *node.System) (float64, func()) {
		res := osu.MessageRate(sys, osu.Options{Windows: osuWindows})
		return res.MeanInjNs, func() {
			r.readRanks(res.Sender, res.Receiver)
			r.msgs += float64(res.Messages / osuWindows * (osuWindows + 1)) // plus one warm-up window
		}
	})
	paperJob(r, "osu_lat", config.TabE2ELatencyModel, func(sys *node.System) (float64, func()) {
		res := osu.Latency(sys, osu.Options{Iters: osuLatIters, Warmup: paperWarmup})
		return res.ReportedNs, func() {
			r.readRanks(res.Rank0, res.Rank1)
			r.msgs += 2 * (osuLatIters + paperWarmup)
		}
	})
}

// paperJob runs one paper-8b job on a fresh two-node system. run returns
// the simulated value checked against modelNs and a readout of the
// counters its result exposes.
func paperJob(r *rep, name string, modelNs float64, run func(*node.System) (simNs float64, readout func())) {
	r.job(name, func() {
		var sys *node.System
		r.phase("setup", func() { sys = node.NewSystem(calibrated(r.p.seed), 2) })
		var simNs float64
		var readout func()
		r.phase("run", func() { simNs, readout = run(sys) })
		r.phase("check", func() {
			r.model(name, modelNs, simNs)
			r.drained(sys)
		})
		r.phase("readout", func() {
			r.readSystem(sys)
			readout()
		})
		sys.Shutdown()
	})
}

// incast4k is the closed-loop incast: four senders put 4 KiB messages into
// node 0 through one switch. Every put is signaled, so each sender's NIC
// writes one completion per message it delivered.
func incast4k(r *rep) {
	r.job("incast", func() {
		var sys *node.System
		r.phase("setup", func() {
			cfg := calibrated(r.p.seed)
			cfg.Topology = topo.Spec{Kind: topo.SingleSwitch}
			sys = node.NewSystem(cfg, incastSenders+1)
		})
		r.phase("run", func() {
			perftest.IncastPutBw(sys, incastSenders, perftest.Options{Iters: incastIters, Warmup: incastWarmup, MsgSize: incastBytes})
		})
		offered := incastSenders * (incastIters + incastWarmup)
		r.phase("check", func() {
			var delivered, failed uint64
			for _, n := range sys.Nodes[1:] {
				s := n.NIC.Stats()
				delivered += s.CQEsWritten
				failed += s.RetryExhausted + s.Flushed + s.QPFails
			}
			if delivered != uint64(offered) || failed != 0 {
				r.failf("delivered %d of %d offered, %d failed", delivered, offered, failed)
			}
			r.drained(sys)
		})
		r.phase("readout", func() {
			r.readSystem(sys)
			r.msgs += float64(offered)
		})
		sys.Shutdown()
	})
}

// chaos runs the soak seed ladder on the 8-node fat-tree. ChaosSoak builds
// its system internally, so the setup phase builds the identical config,
// fault schedule, system and communicator separately and discards them.
func chaos(r *rep) {
	base := calibrated(1)
	opt := perftest.ChaosOptions{}
	opt.Defaults()
	for _, seed := range r.p.ladder {
		r.job("soak", func() {
			r.phase("setup", func() {
				cfg := *base
				cfg.Seed = seed
				cfg.Topology = topo.Spec{Kind: topo.FatTree}
				cfg.Bench.SignalPeriod = 1
				cfg.Faults = perftest.ChaosSchedule(seed, &cfg, opt.Nodes)
				sys := node.NewSystem(&cfg, opt.Nodes)
				mpi.NewComm(sys.Nodes, &cfg, uct.PIOInline)
				sys.Shutdown()
			})
			var res *perftest.ChaosResult
			r.phase("run", func() { res = perftest.ChaosSoak(base, seed, opt) })
			r.phase("check", func() {
				for _, v := range res.Violations {
					r.failf("seed %d: %s", seed, v)
				}
			})
			r.phase("readout", func() {
				e := r.exact
				delivered := 0
				for _, p := range res.Pairs {
					delivered += p.Delivered
				}
				e.add("chaos.delivered", float64(delivered))
				e.add("chaos.end_time_ps", float64(res.EndTime))
				e.add("sim.events", float64(res.Events))
				e.add("faults.dropped", float64(res.WireDropped))
				e.add("faults.corrupted", float64(res.WireCorrupted))
				e.add("faults.flaps", float64(res.Flaps))
				e.add("faults.crashes", float64(res.Crashes))
				e.add("faults.pauses", float64(res.Pauses))
				e.add("nic.qp_fails", float64(res.QPFails))
				e.add("nic.crash_discards", float64(res.CrashDiscards))
				e.add("nic.flushed_recvs", float64(res.FlushedRecvs))
				r.msgs += float64(delivered)
			})
		})
	}
}

// mixedTenantsLong has the shape of examples/workload/mixed-tenants.yaml
// with every time stretched 40x, so one run offers tens of thousands of
// messages and its host cost barely depends on the seed.
//
//go:embed mixed-tenants-long.yaml
var mixedTenantsLong []byte

// openloopMixed runs the open-loop mixed-tenant spec like `bbperftest
// workload`: the kernel tracer is on, and the stall attribution over the
// trace is part of the run.
func openloopMixed(r *rep) {
	r.job("workload", func() {
		var spec *workload.Spec
		var sys *node.System
		r.phase("setup", func() {
			var err error
			if spec, err = workload.ParseSpec(mixedTenantsLong); err == nil {
				err = spec.Validate()
			}
			if err != nil {
				fatalf("embedded workload spec: %v", err)
			}
			cfg := spec.BuildConfig(config.NoiseOff, r.p.seed)
			cfg.TraceCapacity = 1 << 20
			sys = node.NewSystem(cfg, spec.Nodes)
		})
		var res *workload.Result
		var err error
		var maxResidual float64
		var attributed int
		r.phase("run", func() {
			res, err = workload.Run(spec, sys, workload.RunOpt{})
			c0 := cpuTime(processClock)
			if report := perftest.StallReport(sys); report != nil {
				maxResidual = report.MaxResidual().Ns()
				attributed = len(report.Msgs)
			}
			r.attrib += cpuTime(processClock) - c0
		})
		r.phase("check", func() {
			if err != nil {
				r.failf("%v", err)
				return
			}
			for _, c := range res.Cohorts {
				if c.Delivered != c.Offered || c.Failed != 0 {
					r.failf("cohort %s: delivered %d of %d offered, %d failed", c.Name, c.Delivered, c.Offered, c.Failed)
				}
			}
			r.drained(sys)
		})
		r.phase("readout", func() {
			if err != nil {
				return
			}
			r.readSystem(sys)
			e := r.exact
			for _, c := range res.Cohorts {
				e.add("workload.offered", float64(c.Offered))
				s := c.Latency.Summarize()
				e["workload."+c.Name+".p50_ns"] = s.Median
				e["workload."+c.Name+".p99_ns"] = s.P99
				e["workload."+c.Name+".max_ns"] = s.Max
				r.msgs += float64(c.Delivered)
			}
			e["trace.max_residual_ns"] = maxResidual
			e["trace.attributed_msgs"] = float64(attributed)
		})
		sys.Shutdown()
	})
}
