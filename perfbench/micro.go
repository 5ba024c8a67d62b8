package main

import (
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/memsim"
	"breakband/internal/mpi"
	"breakband/internal/node"
	"breakband/internal/pcie"
	"breakband/internal/sim"
	"breakband/internal/simbench"
	"breakband/internal/topo"
	"breakband/internal/trace"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// micros are the per-layer microbenchmarks: each times calls into one
// layer's public functions and reports ns per operation. Existing
// internal/simbench bodies are called as they are.
var micros = []struct {
	name string
	fn   func(*testing.B)
}{
	{"sim.schedule_ns", simbench.Schedule},           // Kernel.After + Run, one event
	{"sim.task_resume_ns", simbench.HandoffFreeStep}, // SpawnTask frame: Advance + Pause
	{"pcie.tlp_ns", benchTLP},
	{"topo.hop_ns", benchHop},
	{"memsim.write_4k_ns", benchWrite4K},
	{"uct.empty_progress_ns", benchEmptyProgress},
	{"uct.put_short_ns", simbench.PutBwEndToEnd}, // PutShort, polling every 16 posts
	{"mpi.isend_wait_ns", benchIsendWait},
	{"workload.arrival_ns", simbench.WorkloadInject}, // arrival generation + injection
	{"trace.emit_ns", benchEmit},
}

// sinkEndpoint is a PCIe endpoint that drops whatever reaches it.
type sinkEndpoint struct{}

func (sinkEndpoint) RxTLP(t *pcie.TLP) { t.Release() }

// benchTLP sends one 64-byte posted write up the calibrated PCIe link at a
// time; the root complex commits it to host memory, the link returns the
// credits, and the commit sends the next. ns/op is one TLP's round.
func benchTLP(b *testing.B) {
	cfg := calibrated(1)
	k := sim.NewKernel()
	link := pcie.NewLink(k, cfg.Link)
	mem := memsim.New(1 << 20)
	buf := mem.Alloc("tlp", 64, 64)
	rc := pcie.NewRootComplex(k, mem, link, cfg.RC)
	link.SetEndpointSide(sinkEndpoint{})
	payload := make([]byte, 64)
	send := func() {
		t := link.NewTLP()
		t.Type = pcie.MWr
		t.Addr = buf.Base
		t.SetData(payload)
		link.SendUp(t)
	}
	commits := 0
	rc.OnCommit(func(uint64, int) {
		if commits++; commits < b.N {
			send()
		}
	})
	b.ResetTimer()
	k.At(0, send)
	k.Run()
	b.StopTimer()
	if commits != b.N {
		b.Fatalf("committed %d of %d TLPs", commits, b.N)
	}
}

// rxFunc adapts a function to a fabric port.
type rxFunc func(*fabric.Frame)

func (f rxFunc) RxFrame(fr *fabric.Frame) { f(fr) }

// benchHop keeps a window of 256-byte frames crossing a back-to-back cable
// (one Fabric.Send hop each); every delivery sends the next frame.
func benchHop(b *testing.B) {
	const window = 32
	k := sim.NewKernel()
	fab := topo.NewFabric(k, calibrated(1).Fabric, topo.Spec{Kind: topo.BackToBack}, 2)
	sent, delivered := 0, 0
	send := func() {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src, f.Dst, f.Bytes = 0, 1, 256
		fab.Send(f)
		sent++
	}
	fab.Attach(0, rxFunc(func(f *fabric.Frame) { f.Release() }))
	fab.Attach(1, rxFunc(func(f *fabric.Frame) {
		delivered++
		f.Release()
		if sent < b.N {
			send()
		}
	}))
	b.ResetTimer()
	k.At(0, func() {
		for i := 0; i < window && i < b.N; i++ {
			send()
		}
	})
	k.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d frames", delivered, b.N)
	}
}

// benchWrite4K commits 4 KiB stores into one node-sized memory.
func benchWrite4K(b *testing.B) {
	mem := memsim.New(calibrated(1).MemBytes)
	buf := mem.Alloc("write", 4096, 64)
	data := make([]byte, 4096)
	mem.Write(buf.Base, data) // grow the lazy backing store outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Write(buf.Base, data)
	}
}

// progressLoopFrame calls Worker.Progress n times on a connected worker
// whose completion queues stay empty.
type progressLoopFrame struct {
	w    *uct.Worker
	i, n int
}

func (f *progressLoopFrame) Step(t *sim.Task) {
	if f.i >= f.n {
		t.Return()
		return
	}
	f.i++
	f.w.StartProgress(t)
}

func benchEmptyProgress(b *testing.B) {
	cfg := calibrated(1)
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	w0, w1 := uct.NewWorker(sys.Nodes[0], cfg), uct.NewWorker(sys.Nodes[1], cfg)
	uct.Connect(w0.NewEp(uct.PIOInline, 1), w1.NewEp(uct.PIOInline, 1))
	sys.K.SpawnTask("progress", &progressLoopFrame{w: w0, n: b.N})
	b.ResetTimer()
	sys.Run()
	b.StopTimer()
	if w0.Stats.EmptyPolls != uint64(b.N) {
		b.Fatalf("%d empty polls of %d progress calls", w0.Stats.EmptyPolls, b.N)
	}
}

// isendWaitFrame runs n rounds of MPI_Isend + MPI_Wait of 8 bytes to rank 1.
type isendWaitFrame struct {
	r    *mpi.Rank
	data []byte
	i, n int
	pc   int
}

func (f *isendWaitFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			if f.i >= f.n {
				t.Return()
				return
			}
			f.pc = 1
			f.r.StartIsend(t, 1, 0, f.data)
			return
		case 1:
			f.pc = 2
			f.r.StartWait(t, f.r.LastIsend())
			return
		case 2:
			f.i++
			f.pc = 0
		}
	}
}

// sinkRankFrame drives rank progress until n messages have arrived.
type sinkRankFrame struct {
	r  *mpi.Rank
	n  int
	pc int
}

func (f *sinkRankFrame) Step(t *sim.Task) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.r.StartPreparePostedRecvs(t, 512)
			return
		case 1:
			if s := f.r.Worker.Stats; int(s.RecvCompletions+s.UnexpectedMsgs) >= f.n {
				t.Return()
				return
			}
			f.pc = 2
			f.r.Worker.StartProgress(t)
			return
		case 2:
			f.pc = 1
		}
	}
}

// benchIsendWait runs MPI_Isend + MPI_Wait rounds of 8 bytes from rank 0
// to rank 1. Every send is signaled, as in the mpi tests: with UCP's
// unsignaled batching a lone send would wait for 63 more.
func benchIsendWait(b *testing.B) {
	cfg := calibrated(1)
	cfg.Bench.SignalPeriod = 1
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	comm := mpi.NewComm(sys.Nodes, cfg, uct.PIOInline)
	sys.K.SpawnTask("sink", &sinkRankFrame{r: comm.Ranks[1], n: b.N})
	sys.K.SpawnTask("isend", &isendWaitFrame{r: comm.Ranks[0], data: make([]byte, 8), n: b.N})
	b.ResetTimer()
	sys.Run()
	b.StopTimer()
	if got := comm.Ranks[0].Stats.Isends; got != uint64(b.N) {
		b.Fatalf("%d isends, want %d", got, b.N)
	}
}

// benchEmit records events into a tracer ring that wraps.
func benchEmit(b *testing.B) {
	tr := trace.New(1 << 16)
	ev := trace.Event{Port: -1, Node: 0, Kind: trace.EvInject}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.At = units.Time(i)
		tr.Emit(ev)
	}
}
