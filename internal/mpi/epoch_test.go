package mpi

import (
	"errors"
	"testing"

	"breakband/internal/faults"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// failEndpoint drives r0's endpoint to rank 1 into the error state after
// rank 1 crashed: a probe send exhausts its retries against the dead peer.
func failEndpoint(t *testing.T, tk *sim.Task, r0 *Rank) {
	t.Helper()
	probe := r0.Isend(tk, 1, 2, []byte{2})
	r0.Wait(tk, probe)
	if probe.Err() == nil || r0.eps[1].Err() == nil {
		t.Fatal("probe send to the crashed peer did not fail the endpoint")
	}
}

// TestCompletionEpochMoves pins the contract PendingSet's cache rests on:
// every way a request terminates, and every error completion the LLP
// polls, moves the rank's completion epoch. Each case reads the epoch
// immediately around one such event on rank 0.
func TestCompletionEpochMoves(t *testing.T) {
	peerDead := []faults.Crash{{Node: 1, At: units.Microseconds(5)}}
	cases := []struct {
		name    string
		crashes []faults.Crash
		// peer runs on rank 1 after it posts its receive credits.
		peer func(p *sim.Proc, r1 *Rank)
		// run returns the epoch read just before and just after the event.
		run func(t *testing.T, p *sim.Proc, r0 *Rank) (before, after uint64)
	}{
		{name: "send callback", run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
			tk := p.Task()
			p.Sleep(units.Microsecond)
			req := r0.Isend(tk, 1, 1, []byte{1})
			before := r0.epoch()
			r0.Wait(tk, req)
			if req.Err() != nil {
				t.Errorf("send failed: %v", req.Err())
			}
			return before, r0.epoch()
		}},
		{name: "receive callback",
			peer: func(p *sim.Proc, r1 *Rank) {
				p.Sleep(units.Microseconds(2))
				r1.Send(p.Task(), 0, 1, []byte{1})
			},
			run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
				tk := p.Task()
				req := r0.Irecv(tk, 1, 1)
				before := r0.epoch()
				r0.Wait(tk, req)
				if req.Err() != nil || len(req.Data()) != 1 {
					t.Errorf("receive: err %v, data %v", req.Err(), req.Data())
				}
				return before, r0.epoch()
			}},
		{name: "isend on an errored endpoint", crashes: peerDead,
			run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
				tk := p.Task()
				p.Sleep(units.Microseconds(10))
				failEndpoint(t, tk, r0)
				before := r0.epoch()
				req := r0.Isend(tk, 1, 1, []byte{1})
				if !req.Done() || req.Err() == nil {
					t.Errorf("isend on an errored endpoint: done %v, err %v", req.Done(), req.Err())
				}
				return before, r0.epoch()
			}},
		{name: "CancelRecv", run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
			tk := p.Task()
			req := r0.Irecv(tk, 1, 1)
			before := r0.epoch()
			if !r0.CancelRecv(tk, req, errors.New("test: give up")) {
				t.Error("CancelRecv of a pending receive reported false")
			}
			return before, r0.epoch()
		}},
		{name: "checkFailed cancel after a peer crash", crashes: peerDead,
			run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
				tk := p.Task()
				p.Sleep(units.Microseconds(10))
				req := r0.Irecv(tk, 1, 1)
				failEndpoint(t, tk, r0)
				before := r0.epoch()
				if !r0.checkFailed(tk, req) || req.Err() == nil {
					t.Errorf("pending receive from a failed endpoint not cancelled: err %v", req.Err())
				}
				return before, r0.epoch()
			}},
		{name: "flushed-receive error CQE", crashes: []faults.Crash{{Node: 0, At: units.Microseconds(5)}},
			run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
				tk := p.Task()
				p.Sleep(units.Microseconds(10))
				before := r0.epoch()
				// No request is pending, so only the LLP can move the epoch.
				for i := 0; i < 100 && r0.Worker.Uct.Stats.ErrorCQEs == 0; i++ {
					r0.Worker.Progress(tk)
				}
				if r0.Worker.Uct.Stats.ErrorCQEs == 0 || r0.eps[1].Err() == nil {
					t.Error("local crash produced no flushed-receive error CQE")
				}
				return before, r0.epoch()
			}},
		{name: "error send CQE", crashes: peerDead,
			run: func(t *testing.T, p *sim.Proc, r0 *Rank) (uint64, uint64) {
				tk := p.Task()
				p.Sleep(units.Microseconds(10))
				req := r0.Isend(tk, 1, 1, []byte{1})
				before := r0.epoch()
				for !req.Done() {
					r0.Worker.Progress(tk)
				}
				if req.Err() == nil || r0.Worker.Uct.Stats.ErrorCQEs == 0 {
					t.Errorf("send to a dead peer: err %v, %d error CQEs", req.Err(), r0.Worker.Uct.Stats.ErrorCQEs)
				}
				return before, r0.epoch()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, comm := crashHarness(t, tc.crashes...)
			defer sys.Shutdown()
			r0, r1 := comm.Ranks[0], comm.Ranks[1]
			var before, after uint64
			ran := false
			sys.K.Spawn("rank1", func(p *sim.Proc) {
				r1.PreparePostedRecvs(p.Task(), 16)
				if tc.peer != nil {
					tc.peer(p, r1)
				}
			})
			sys.K.Spawn("rank0", func(p *sim.Proc) {
				r0.PreparePostedRecvs(p.Task(), 16)
				before, after = tc.run(t, p, r0)
				ran = true
			})
			sys.K.RunUntil(units.Microseconds(50000))
			if !ran {
				t.Fatal("case did not finish")
			}
			if after == before {
				t.Errorf("epoch did not move (stayed %d)", before)
			}
		})
	}
}

// TestWaitallPeerCrashCancelsEveryRecv: a Waitall over 64 pending receives
// whose source crashes mid-wait returns, with every receive cancelled by the
// cached failure scan with the endpoint's error, exactly once each. A send
// the peer cannot accept (it posted no receive credits) rides in the same
// Waitall: it sits in RNR backoff until the crash, then exhausts its
// retries, which is how rank 0 learns of the death.
func TestWaitallPeerCrashCancelsEveryRecv(t *testing.T) {
	const n = 64
	sys, comm := faultHarness(t, units.Microseconds(20))
	defer sys.Shutdown()
	r0 := comm.Ranks[0]
	var reqs []*Request
	var failuresBefore uint64
	returned := false
	sys.K.Spawn("rank0", func(p *sim.Proc) {
		tk := p.Task()
		r0.PreparePostedRecvs(tk, 16)
		p.Sleep(units.Microsecond)
		for i := 0; i < n; i++ {
			reqs = append(reqs, r0.Irecv(tk, 1, 1))
		}
		failuresBefore = r0.Worker.Stats.RecvFailures
		probe := r0.Isend(tk, 1, 2, []byte{2})
		r0.Waitall(tk, append(reqs[:n:n], probe))
		returned = true
	})
	sys.K.RunUntil(units.Microseconds(50000))
	if !returned {
		t.Fatalf("Waitall did not return; %d receive failures", r0.Worker.Stats.RecvFailures-failuresBefore)
	}
	epErr := r0.eps[1].Err()
	if epErr == nil {
		t.Fatal("endpoint to the crashed peer never errored")
	}
	for i, q := range reqs {
		if !q.Done() || q.Err() != epErr {
			t.Errorf("receive %d: done %v, err %v, want the endpoint error %v", i, q.Done(), q.Err(), epErr)
		}
	}
	if got := r0.Worker.Stats.RecvFailures - failuresBefore; got != n {
		t.Errorf("RecvFailures rose by %d, want %d", got, n)
	}
}
