package mpi

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/faults"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/uct"
	"breakband/internal/units"
)

// faultHarness builds the two-node harness with node 1's NIC scheduled to
// crash at the given time (no restart: the peer stays dead).
func faultHarness(t *testing.T, crashAt units.Time) (*node.System, *Comm) {
	t.Helper()
	return crashHarness(t, faults.Crash{Node: 1, At: crashAt})
}

// crashHarness builds the two-node harness with the given NIC crashes
// scheduled.
func crashHarness(t *testing.T, crashes ...faults.Crash) (*node.System, *Comm) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	cfg.Bench.SignalPeriod = 1 // blocking sends complete via per-message CQEs
	cfg.Faults.Crashes = crashes
	sys := node.NewSystem(cfg, 2)
	comm := NewComm(sys.Nodes[:2], cfg, uct.PIOInline)
	return sys, comm
}

// TestSendToCrashedPeerErrors: a send posted after the peer died must
// complete with an error (ACK-timeout -> retry exhaustion), not hang — the
// flush-semantics contract surfaced at the MPI layer.
func TestSendToCrashedPeerErrors(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var sendErr error
	sys.K.Spawn("rank1", func(p *sim.Proc) {
		r1.PreparePostedRecvs(p.Task(), 16)
	})
	sys.K.Spawn("rank0", func(p *sim.Proc) {
		tk := p.Task()
		r0.PreparePostedRecvs(tk, 16)
		p.Sleep(units.Microseconds(10)) // peer is dead by now
		req := r0.Isend(tk, 1, 1, []byte{1})
		r0.Wait(tk, req)
		if !req.Done() {
			t.Error("request not done after Wait")
		}
		sendErr = req.Err()
	})
	sys.Run()
	if sendErr == nil {
		t.Fatal("send to crashed peer completed without error")
	}
	if r0.Worker.Stats.SendFailures == 0 {
		t.Errorf("worker recorded no send failures: %+v", r0.Worker.Stats)
	}
}

// TestRecvFromCrashedPeerErrors: a receive posted before the peer died is
// cancelled by the wait loop once the transport marks the endpoint failed
// (here: a probe send exhausting its retries). A receive posted after the
// endpoint error short-circuits immediately instead of waiting for a match
// that cannot arrive — mirroring the NIC's CQEFlushErr contract for work
// posted to an errored QP.
func TestRecvFromCrashedPeerErrors(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var pendingErr, lateErr error
	var lateTook units.Time
	sys.K.Spawn("rank1", func(p *sim.Proc) {
		r1.PreparePostedRecvs(p.Task(), 16)
	})
	sys.K.Spawn("rank0", func(p *sim.Proc) {
		tk := p.Task()
		r0.PreparePostedRecvs(tk, 16)
		p.Sleep(units.Microseconds(10))
		// The posted receive cannot learn of the death on its own — the
		// probe send drives the transport to retry exhaustion, which marks
		// the endpoint and lets the wait loop cancel the receive.
		pending := r0.Irecv(tk, 1, 1)
		probe := r0.Isend(tk, 1, 2, []byte{2})
		r0.Wait(tk, probe)
		r0.Wait(tk, pending)
		pendingErr = pending.Err()
		// Late post against the now-known-dead endpoint: no waiting at all.
		start := sys.K.Now()
		late := r0.Irecv(tk, 1, 3)
		r0.Wait(tk, late)
		lateErr = late.Err()
		lateTook = sys.K.Now() - start
	})
	sys.Run()
	if pendingErr == nil {
		t.Error("pending receive against crashed peer completed without error")
	}
	if lateErr == nil {
		t.Error("late-posted receive against dead endpoint did not short-circuit with an error")
	}
	if lateTook > units.Microsecond {
		t.Errorf("late-posted receive took %v, want immediate short-circuit", lateTook)
	}
	if r0.Worker.Stats.RecvFailures == 0 {
		t.Errorf("worker recorded no recv failures: %+v", r0.Worker.Stats)
	}
}

// TestLocalCrashFlushesRecv: the rank whose own NIC dies sees its posted
// receive flushed (error recv CQE -> endpoint error -> cancelled request)
// rather than blocking forever on buffers the device will never fill.
func TestLocalCrashFlushesRecv(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(5))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var recvErr error
	sys.K.Spawn("rank0", func(p *sim.Proc) {
		r0.PreparePostedRecvs(p.Task(), 16)
	})
	sys.K.Spawn("rank1", func(p *sim.Proc) {
		tk := p.Task()
		r1.PreparePostedRecvs(tk, 16)
		req := r1.Irecv(tk, 0, 1) // node 1's own NIC crashes at 5us
		r1.Wait(tk, req)
		if !req.Done() {
			t.Error("request not done after Wait")
		}
		recvErr = req.Err()
	})
	sys.Run()
	if recvErr == nil {
		t.Fatal("receive on crashed node completed without error")
	}
	if fr := sys.Nodes[1].NIC.Stats().FlushedRecvs; fr == 0 {
		t.Error("crashed NIC flushed no posted receives")
	}
}

// TestWaitallMixedOutcomes: Waitall over a batch where some requests fail
// must terminate with per-request errors — failed ones report, successful
// ones stay clean.
func TestWaitallMixedOutcomes(t *testing.T) {
	sys, comm := faultHarness(t, units.Microseconds(50))
	defer sys.Shutdown()
	r0, r1 := comm.Ranks[0], comm.Ranks[1]
	var early, late *Request
	sys.K.Spawn("rank1", func(p *sim.Proc) {
		r1.PreparePostedRecvs(p.Task(), 16)
		// Match only the pre-crash send, then stop progressing.
		got := r1.Recv(p.Task(), 0, 1)
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("pre-crash recv = %v", got)
		}
	})
	sys.K.Spawn("rank0", func(p *sim.Proc) {
		tk := p.Task()
		r0.PreparePostedRecvs(tk, 16)
		p.Sleep(units.Microsecond)
		early = r0.Isend(tk, 1, 1, []byte{7}) // completes before the crash
		p.Sleep(units.Microseconds(100))      // peer dies at 50us
		late = r0.Isend(tk, 1, 2, []byte{8})
		r0.Waitall(tk, []*Request{early, late})
	})
	sys.Run()
	if !early.Done() || !late.Done() {
		t.Fatalf("waitall did not terminate both requests: early=%v late=%v", early.Done(), late.Done())
	}
	if early.Err() != nil {
		t.Errorf("pre-crash send errored: %v", early.Err())
	}
	if late.Err() == nil {
		t.Error("post-crash send completed without error")
	}
}
