package uct

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"breakband/internal/config"
	"breakband/internal/mlx"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/units"
)

func harness(t *testing.T) (*node.System, *Worker, *Worker, *Ep, *Ep) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	w0 := NewWorker(sys.Nodes[0], cfg)
	w1 := NewWorker(sys.Nodes[1], cfg)
	e0 := w0.NewEp(PIOInline, 1)
	e1 := w1.NewEp(PIOInline, 1)
	Connect(e0, e1)
	return sys, w0, w1, e0, e1
}

func TestPutShortDeliversPayload(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		if err := e0.PutShort(tk, 0, payload); err != nil {
			t.Errorf("put: %v", err)
		}
		for e0.InFlight() > 0 {
			w0.Progress(tk)
		}
	})
	sys.Run()
	if got := sys.Nodes[1].Mem.Read(dst.Base, 8); !bytes.Equal(got, payload) {
		t.Errorf("remote buffer = %v", got)
	}
	if w0.Stats.Posts != 1 || w0.Stats.SendCQEs != 1 {
		t.Errorf("stats = %+v", w0.Stats)
	}
}

func TestAmShortInvokesHandler(t *testing.T) {
	sys, w0, w1, e0, e1 := harness(t)
	defer sys.Shutdown()
	var got []byte
	var gotAt units.Time
	w1.SetAmHandler(7, func(p *sim.Task, data []byte) {
		got = append([]byte(nil), data...)
		gotAt = p.Now()
	})
	payload := []byte{0xA, 0xB, 0xC}
	sys.K.Spawn("rx", func(p *sim.Proc) {
		tk := p.Task()
		e1.PostRecvs(tk, 8)
		for got == nil {
			w1.Progress(tk)
		}
	})
	sys.K.Spawn("tx", func(p *sim.Proc) {
		tk := p.Task()
		p.Sleep(units.Microsecond) // let receives post
		if err := e0.AmShort(tk, 7, payload); err != nil {
			t.Errorf("am: %v", err)
		}
		for e0.InFlight() > 0 {
			w0.Progress(tk)
		}
	})
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Errorf("handler payload = %v", got)
	}
	if gotAt == 0 {
		t.Error("handler time not captured")
	}
}

func TestBusyPostOnFullQueue(t *testing.T) {
	sys, w0, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	depth := e0.QP().SQ.Depth
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		for i := 0; i < depth; i++ {
			if err := e0.PutShort(tk, 0, []byte{1}); err != nil {
				t.Fatalf("post %d failed: %v", i, err)
			}
		}
		if e0.FreeSlots() != 0 {
			t.Errorf("FreeSlots = %d after filling", e0.FreeSlots())
		}
		if err := e0.PutShort(tk, 0, []byte{1}); err != ErrNoResource {
			t.Errorf("overfull post returned %v, want ErrNoResource", err)
		}
		if w0.Stats.BusyPosts != 1 {
			t.Errorf("busy posts = %d", w0.Stats.BusyPosts)
		}
		// Progress must free a slot and let the post succeed.
		for w0.Progress(tk) == 0 {
		}
		if err := e0.PutShort(tk, 0, []byte{1}); err != nil {
			t.Errorf("post after progress: %v", err)
		}
		for e0.InFlight() > 0 {
			w0.Progress(tk)
		}
	})
	sys.Run()
}

func TestBusyPostCost(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	cfg := sys.Cfg
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	depth := e0.QP().SQ.Depth
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		for i := 0; i < depth; i++ {
			e0.PutShort(tk, 0, []byte{1})
		}
		t0 := p.Now()
		e0.PutShort(tk, 0, []byte{1})
		if d := p.Now() - t0; d != cfg.SW.BusyPost.Mean() {
			t.Errorf("busy post cost %v, want %v", d, cfg.SW.BusyPost.Mean())
		}
	})
	sys.Run()
}

func TestLLPPostCostMatchesTable(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		t0 := p.Now()
		e0.PutShort(tk, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		got := (p.Now() - t0).Ns()
		if math.Abs(got-config.TabLLPPost) > 1e-9 {
			t.Errorf("LLP_post wall time = %v, want %v", got, config.TabLLPPost)
		}
	})
	sys.Run()
}

func TestUnsignaledPeriod(t *testing.T) {
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	defer sys.Shutdown()
	w0 := NewWorker(sys.Nodes[0], cfg)
	w1 := NewWorker(sys.Nodes[1], cfg)
	e0 := w0.NewEp(PIOInline, 4) // every 4th signaled
	e1 := w1.NewEp(PIOInline, 4)
	Connect(e0, e1)
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	e0.RemoteBuf = dst.Base
	var freed int
	w0.SetSendCompletion(func(p *sim.Task, _ *Ep, n int, _ error) { freed += n })
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		for i := 0; i < 8; i++ {
			if err := e0.PutShort(tk, 0, []byte{1}); err != nil {
				t.Fatalf("post %d: %v", i, err)
			}
		}
		for e0.InFlight() > 0 {
			w0.Progress(tk)
		}
	})
	sys.Run()
	if w0.Stats.SendCQEs != 2 {
		t.Errorf("CQEs = %d, want 2 (8 posts, c=4)", w0.Stats.SendCQEs)
	}
	if freed != 8 {
		t.Errorf("freed = %d, want 8", freed)
	}
	if w0.Stats.SendsFreed != 8 {
		t.Errorf("SendsFreed = %d", w0.Stats.SendsFreed)
	}
}

func TestOversizedPostRejected(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	sys.K.Spawn("test", func(p *sim.Proc) {
		tk := p.Task()
		if err := e0.PutShort(tk, 0, make([]byte, 33)); err == nil || err == ErrNoResource {
			t.Errorf("oversized post returned %v", err)
		}
	})
	sys.Run()
}

func TestDoorbellModesDeliver(t *testing.T) {
	for _, mode := range []PostMode{DoorbellInline, DoorbellGather} {
		cfg := config.TX2CX4(config.NoiseOff, 1, true)
		sys := node.NewSystem(cfg, 2)
		w0 := NewWorker(sys.Nodes[0], cfg)
		w1 := NewWorker(sys.Nodes[1], cfg)
		e0 := w0.NewEp(mode, 1)
		e1 := w1.NewEp(mode, 1)
		Connect(e0, e1)
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		payload := []byte{5, 6, 7, 8}
		sys.K.Spawn("test", func(p *sim.Proc) {
			tk := p.Task()
			if err := e0.PutShort(tk, 0, payload); err != nil {
				t.Errorf("%v post: %v", mode, err)
			}
			for e0.InFlight() > 0 {
				w0.Progress(tk)
			}
		})
		sys.Run()
		if got := sys.Nodes[1].Mem.Read(dst.Base, 4); !bytes.Equal(got, payload) {
			t.Errorf("%v: remote buffer = %v", mode, got)
		}
		sys.Shutdown()
	}
}

func TestStageProfiling(t *testing.T) {
	for _, st := range []Stage{StMDSetup, StBarrierMD, StBarrierDBC, StPIOCopy, StLLPPost} {
		sys, w0, _, e0, _ := harness(t)
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		w0.ProfStage = st
		sys.K.Spawn("test", func(p *sim.Proc) {
			tk := p.Task()
			sys.Nodes[0].Prof.Calibrate(p, 100)
			for i := 0; i < 50; i++ {
				e0.PutShort(tk, 0, []byte{1})
				for e0.InFlight() > 0 {
					w0.Progress(tk)
				}
			}
		})
		sys.Run()
		want := map[Stage]float64{
			StMDSetup:    config.TabMDSetup,
			StBarrierMD:  config.TabBarrierMD,
			StBarrierDBC: config.TabBarrierDBC,
			StPIOCopy:    config.TabPIOCopy,
			StLLPPost:    config.TabLLPPost,
		}[st]
		got := sys.Nodes[0].Prof.MeanNs(st.Name())
		if math.Abs(got-want) > 0.01 {
			t.Errorf("stage %v measured %v, want %v", st, got, want)
		}
		sys.Shutdown()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() units.Time {
		sys, w0, _, e0, _ := harness(t)
		defer sys.Shutdown()
		dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
		e0.RemoteBuf = dst.Base
		var end units.Time
		sys.K.Spawn("test", func(p *sim.Proc) {
			tk := p.Task()
			for i := 0; i < 200; i++ {
				for e0.PutShort(tk, 0, []byte{1}) == ErrNoResource {
					w0.Progress(tk)
				}
			}
			for e0.InFlight() > 0 {
				w0.Progress(tk)
			}
			end = p.Now()
		})
		sys.Run()
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs ended at %v and %v", a, b)
	}
}

func TestModeString(t *testing.T) {
	if PIOInline.String() != "pio-inline" || DoorbellInline.String() != "doorbell-inline" ||
		DoorbellGather.String() != "doorbell-gather" {
		t.Error("mode strings")
	}
}

// TestReadCQOwnershipProbe: readCQ decides emptiness from the ownership
// byte alone, and a slot whose generation matches but whose body is
// corrupt still reaches the decode panic.
func TestReadCQOwnershipProbe(t *testing.T) {
	sys, _, _, e0, _ := harness(t)
	defer sys.Shutdown()
	ring := e0.qp.SendCQ
	var raw [mlx.CQESize]byte
	raw[0] = 0xff // no such CQE opcode

	sys.Nodes[0].Mem.Write(ring.EntryAddr(0), raw[:])
	if cqe := e0.readCQ(ring, 0); cqe != nil {
		t.Fatalf("slot with a stale generation decoded as %+v", cqe)
	}

	raw[mlx.CQESize-1] = ring.Gen(0)
	sys.Nodes[0].Mem.Write(ring.EntryAddr(0), raw[:])
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "uct: corrupt CQE at ci=0") {
			t.Errorf("owned corrupt CQE: panic %q, want the decode panic", msg)
		}
	}()
	e0.readCQ(ring, 0)
}
