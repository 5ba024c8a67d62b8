package uct

import (
	"testing"

	"breakband/internal/config"
	"breakband/internal/mlx"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// pairedHarness builds two workers with n connected endpoint pairs.
func pairedHarness(t *testing.T, n int) (*node.System, *Worker, *Worker) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	w0 := NewWorker(sys.Nodes[0], cfg)
	w1 := NewWorker(sys.Nodes[1], cfg)
	for i := 0; i < n; i++ {
		Connect(w0.NewEp(PIOInline, 1), w1.NewEp(PIOInline, 1))
	}
	return sys, w0, w1
}

// cleanPass runs one progress pass that must find every CQ empty and leave
// the idle memo armed. It reports rather than stops: it runs on a proc.
func cleanPass(t *testing.T, w *Worker, tk *sim.Task) bool {
	t.Helper()
	if n := w.Progress(tk); n != 0 || !w.scanClean {
		t.Errorf("pass retired %d ops with scanClean=%v, want an empty clean pass", n, w.scanClean)
		return false
	}
	return true
}

// TestIdlePassSeesCQEByEveryRoute: after a clean empty pass (and a skipped
// one), the very next pass reads a CQE whichever way it reached host
// memory — a Root Complex DMA commit, the crashed NIC's direct write, or a
// raw memory store.
func TestIdlePassSeesCQEByEveryRoute(t *testing.T) {
	routes := []struct {
		name string
		// darkPeer keeps the put unacknowledged, so only land completes it.
		darkPeer bool
		// land makes one send CQE visible on e0's CQ before the next pass.
		land    func(p *sim.Proc, sys *node.System, e0 *Ep)
		wantErr bool
	}{
		{"rc_dma", false, func(p *sim.Proc, sys *node.System, e0 *Ep) {
			// The put was posted before the clean passes; its CQE
			// commits through the RC while the proc sleeps.
			p.Sleep(10 * units.Microsecond)
		}, false},
		{"local_crash", true, func(p *sim.Proc, sys *node.System, e0 *Ep) {
			sys.Nodes[0].NIC.Crash()
		}, true},
		{"raw_write", true, func(p *sim.Proc, sys *node.System, e0 *Ep) {
			ring := e0.qp.SendCQ
			cqe := mlx.CQE{Op: mlx.CQEReq, WQECounter: e0.pi - 1, QPN: e0.qp.QPN, Gen: ring.Gen(e0.sendCI)}
			enc, err := cqe.Encode()
			if err != nil {
				t.Error(err)
			}
			sys.Nodes[0].Mem.Write(ring.EntryAddr(e0.sendCI), enc[:])
		}, false},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			sys, w0, _ := pairedHarness(t, 3)
			defer sys.Shutdown()
			e0 := w0.Eps[1]
			dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
			e0.RemoteBuf = dst.Base
			if rt.darkPeer {
				sys.Nodes[1].NIC.Crash()
			}
			sys.K.Spawn("test", func(p *sim.Proc) {
				tk := p.Task()
				if err := e0.PutShort(tk, 0, []byte{1}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if rt.darkPeer {
					p.Sleep(2 * units.Microsecond) // the NIC executes the WQE
				}
				probes := w0.probes
				if !cleanPass(t, w0, tk) || !cleanPass(t, w0, tk) {
					return
				}
				if w0.probes != probes+2*3 {
					t.Errorf("two idle passes probed %d bytes, want one scan of 6", w0.probes-probes)
				}
				rt.land(p, sys, e0)
				if n := w0.Progress(tk); n != 1 {
					t.Errorf("pass after the CQE landed retired %d ops, want 1", n)
				}
				if got := w0.Stats.ErrorCQEs > 0; got != rt.wantErr {
					t.Errorf("ErrorCQEs = %d, want an error CQE: %v", w0.Stats.ErrorCQEs, rt.wantErr)
				}
				if w0.Stats.SendCQEs != 1 || e0.InFlight() != 0 {
					t.Errorf("SendCQEs = %d, in flight %d, want 1 and 0", w0.Stats.SendCQEs, e0.InFlight())
				}
			})
			sys.Run()
		})
	}
}

// TestIdleMemoInvalidation: consuming a CQE disarms the memo, so a second
// CQE that landed before the same poll is read on the next pass; a new
// endpoint forces a full rescan.
func TestIdleMemoInvalidation(t *testing.T) {
	t.Run("two_cqes_one_poll", func(t *testing.T) {
		sys, w0, _ := pairedHarness(t, 2)
		defer sys.Shutdown()
		e0 := w0.Eps[0]
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		sys.K.Spawn("test", func(p *sim.Proc) {
			tk := p.Task()
			if !cleanPass(t, w0, tk) {
				return
			}
			for i := 0; i < 2; i++ {
				if err := e0.PutShort(tk, 0, []byte{byte(i)}); err != nil {
					t.Errorf("put %d: %v", i, err)
				}
			}
			p.Sleep(20 * units.Microsecond)
			for i := 0; i < 2; i++ {
				if n := w0.Progress(tk); n != 1 {
					t.Errorf("pass %d retired %d ops, want 1", i, n)
				}
			}
			if cleanPass(t, w0, tk) && w0.Stats.SendCQEs != 2 {
				t.Errorf("SendCQEs = %d, want 2", w0.Stats.SendCQEs)
			}
		})
		sys.Run()
	})
	t.Run("new_ep_rescans", func(t *testing.T) {
		sys, w0, w1 := pairedHarness(t, 2)
		defer sys.Shutdown()
		sys.K.Spawn("test", func(p *sim.Proc) {
			tk := p.Task()
			if !cleanPass(t, w0, tk) {
				return
			}
			probes := w0.probes
			Connect(w0.NewEp(PIOInline, 1), w1.NewEp(PIOInline, 1))
			cleanPass(t, w0, tk)
			if w0.probes-probes != 2*3 {
				t.Errorf("pass after NewEp probed %d bytes, want a full rescan of 6", w0.probes-probes)
			}
			probes = w0.probes
			cleanPass(t, w0, tk)
			if w0.probes != probes {
				t.Errorf("idle pass after the rescan probed %d bytes, want 0", w0.probes-probes)
			}
		})
		sys.Run()
	})
}

// TestIdlePassHostWork pins the host work of idle passes exactly: with 14
// endpoints, 1000 consecutive empty passes probe 28 ownership bytes (one
// full scan) and visit no endpoint in the replenish walk. Once a receive
// leaves a credit owed on endpoint 5, one walk visits endpoints 0..5 and
// later idle passes visit none.
func TestIdlePassHostWork(t *testing.T) {
	const eps, passes, owing = 14, 1000, 5
	t.Run("idle", func(t *testing.T) {
		sys, w0, _ := pairedHarness(t, eps)
		defer sys.Shutdown()
		sys.K.Spawn("idle", func(p *sim.Proc) {
			tk := p.Task()
			for i := 0; i < passes; i++ {
				w0.Progress(tk)
			}
		})
		sys.Run()
		if w0.probes != 2*eps || w0.replVisits != 0 {
			t.Errorf("%d idle passes: %d probes, %d replenish visits; want %d and 0",
				passes, w0.probes, w0.replVisits, 2*eps)
		}
		if w0.Stats.Progresses != passes || w0.Stats.EmptyPolls != passes {
			t.Errorf("stats = %+v, want %d empty passes", w0.Stats, passes)
		}
	})
	t.Run("owed_credit", func(t *testing.T) {
		sys, w0, w1 := pairedHarness(t, eps)
		defer sys.Shutdown()
		got := false
		w1.SetAmHandler(3, func(*sim.Task, []byte) { got = true })
		sys.K.Spawn("rx", func(p *sim.Proc) {
			tk := p.Task()
			w1.Eps[owing].PostRecvs(tk, 1)
			for !got {
				w1.Progress(tk)
			}
			if w1.owedRecv != 1 {
				t.Errorf("owed credits after one receive = %d, want 1", w1.owedRecv)
			}
			probes, visits := w1.probes, w1.replVisits
			for i := 0; i < passes; i++ {
				w1.Progress(tk)
			}
			if d := w1.probes - probes; d != 2*eps {
				t.Errorf("idle passes after a receive probed %d bytes, want one rescan of %d", d, 2*eps)
			}
			if d := w1.replVisits - visits; d != owing+1 {
				t.Errorf("replenish walks visited %d endpoints, want %d", d, owing+1)
			}
			if w1.owedRecv != 0 || w1.Eps[owing].owedRecvCredits != 0 {
				t.Errorf("owed credits = %d (ep %d), want 0", w1.owedRecv, w1.Eps[owing].owedRecvCredits)
			}
		})
		sys.K.Spawn("tx", func(p *sim.Proc) {
			p.Sleep(units.Microsecond) // let the receive post
			if err := w0.Eps[owing].AmShort(p.Task(), 3, []byte{7}); err != nil {
				t.Errorf("am: %v", err)
			}
		})
		sys.Run()
	})
}

// TestIdleMemoMatchesFullScan runs the same AM/put exchange twice, once
// with the idle memo and once forcing a full scan on every pass, and
// requires identical per-pass results, times and counters.
func TestIdleMemoMatchesFullScan(t *testing.T) {
	type passRec struct {
		n  int
		at units.Time
	}
	run := func(force bool) (recs [2][]passRec, stats [2]Stats) {
		sys, w0, w1 := pairedHarness(t, 4)
		defer sys.Shutdown()
		ws := [2]*Worker{w0, w1}
		// pass runs and records one progress pass on worker i. It reports
		// false once the pass budget is spent, so a lost CQE fails the
		// comparison instead of hanging the test.
		pass := func(i int, tk *sim.Task) bool {
			if force {
				ws[i].scanClean = false
			}
			n := ws[i].Progress(tk)
			recs[i] = append(recs[i], passRec{n, tk.Now()})
			return len(recs[0])+len(recs[1]) < 100000
		}
		const msgs, ams = 40, 26 // every third message is a put
		received := 0
		w1.SetAmHandler(1, func(*sim.Task, []byte) { received++ })
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		sys.K.Spawn("rx", func(p *sim.Proc) {
			tk := p.Task()
			for _, e := range w1.Eps {
				e.PostRecvs(tk, 16)
			}
			for received < ams && pass(1, tk) {
			}
			for i := 0; i < 50; i++ {
				pass(1, tk)
			}
		})
		sys.K.Spawn("tx", func(p *sim.Proc) {
			tk := p.Task()
			p.Sleep(5 * units.Microsecond)
			for i := 0; i < msgs; i++ {
				e := w0.Eps[(i*7)%len(w0.Eps)]
				e.RemoteBuf = dst.Base
				post := func() error {
					if i%3 == 0 {
						return e.PutShort(tk, 0, []byte{byte(i)})
					}
					return e.AmShort(tk, 1, []byte{byte(i)})
				}
				for post() == ErrNoResource && pass(0, tk) {
				}
				for j := 0; j < i%5; j++ {
					pass(0, tk)
				}
			}
			for _, e := range w0.Eps {
				for e.InFlight() > 0 && pass(0, tk) {
				}
			}
		})
		sys.Run()
		return recs, [2]Stats{w0.Stats, w1.Stats}
	}
	memo, memoStats := run(false)
	full, fullStats := run(true)
	if memoStats != fullStats {
		t.Errorf("stats differ:\nmemo %+v\nfull %+v", memoStats, fullStats)
	}
	for i := range memo {
		if len(memo[i]) != len(full[i]) {
			t.Errorf("worker %d: %d passes with the memo, %d with full scans", i, len(memo[i]), len(full[i]))
			continue
		}
		for j := range memo[i] {
			if memo[i][j] != full[i][j] {
				t.Errorf("worker %d pass %d: memo %+v, full scan %+v", i, j, memo[i][j], full[i][j])
				break
			}
		}
	}
	if memoStats[0].SendCQEs != 40 || memoStats[1].RecvCQEs != 26 || memoStats[1].EmptyPolls == 0 {
		t.Errorf("stats %+v: want 40 send CQEs, 26 receives and some empty polls", memoStats)
	}
}
