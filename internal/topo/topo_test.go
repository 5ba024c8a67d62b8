package topo

import (
	"fmt"
	"strings"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/sim"
	"breakband/internal/units"
)

// testCfg mirrors the calibration shape with round numbers: 80 ps/B
// serialization, 30 B frame overhead, 270 ns total wire, 108 ns switch.
func testCfg(useSwitch bool) fabric.Config {
	return fabric.Config{
		WireProp:      units.Nanoseconds(270),
		WirePerByte:   units.Time(80),
		FrameOverhead: 30,
		SwitchLatency: units.Nanoseconds(108),
		UseSwitch:     useSwitch,
	}
}

// port records deliveries and releases every frame (optionally acking data
// frames first).
type port struct {
	k   *sim.Kernel
	fab *Fabric
	got []fabric.FrameKind
	at  []units.Time
	// acks records the AckInfo of every delivered TransportAck.
	acks []fabric.AckInfo
	ack  bool
}

func (p *port) RxFrame(f *fabric.Frame) {
	p.got = append(p.got, f.Kind)
	p.at = append(p.at, p.k.Now())
	if f.Kind == fabric.TransportAck {
		p.acks = append(p.acks, f.Ack)
	}
	if p.ack && f.Kind == fabric.Data {
		p.fab.SendAck(p.fab.AckFor(f, fabric.AckInfo{QPN: f.Op.SrcQPN, Counter: f.Op.Counter}))
	}
	f.Release()
}

func build(t *testing.T, cfg fabric.Config, spec Spec, hosts int) (*sim.Kernel, *Fabric, []*port) {
	t.Helper()
	k := sim.NewKernel()
	fab := NewFabric(k, cfg, spec, hosts)
	ports := make([]*port, hosts)
	for i := range ports {
		ports[i] = &port{k: k, fab: fab}
		fab.Attach(i, ports[i])
	}
	return k, fab, ports
}

// sendAt schedules a pooled data frame of b payload bytes.
func sendAt(k *sim.Kernel, fab *Fabric, at units.Time, src, dst, b int) {
	k.At(at, func() {
		f := fab.NewFrame()
		f.Kind = fabric.Data
		f.Src = src
		f.Dst = dst
		f.Bytes = b
		fab.Send(f)
	})
}

func TestSpecResolve(t *testing.T) {
	cases := []struct {
		spec  Spec
		hosts int
		want  Kind
	}{
		{Spec{}, 2, SingleSwitch}, // auto + UseSwitch
		{Spec{}, 5, SingleSwitch}, // auto N>2
		{Spec{Kind: BackToBack}, 2, BackToBack},
		{Spec{Kind: FatTree}, 8, FatTree},
	}
	for _, c := range cases {
		r := c.spec.resolve(testCfg(true), c.hosts)
		if r.Kind != c.want {
			t.Errorf("resolve(%v, %d hosts): kind %v, want %v", c.spec, c.hosts, r.Kind, c.want)
		}
		if r.Credits != DefaultCredits {
			t.Errorf("resolve(%v): credits %d, want default %d", c.spec, r.Credits, DefaultCredits)
		}
	}
	// Auto with two hosts and no switch resolves back-to-back.
	if r := (Spec{}).resolve(testCfg(false), 2); r.Kind != BackToBack {
		t.Errorf("auto direct: kind %v, want backtoback", r.Kind)
	}
	// Fat-tree default radix: smallest even k with k*k/2 >= hosts.
	if r := (Spec{Kind: FatTree}).resolve(testCfg(true), 8); r.Radix != 4 {
		t.Errorf("fattree(8 hosts) default radix %d, want 4", r.Radix)
	}
	if r := (Spec{Kind: FatTree}).resolve(testCfg(true), 9); r.Radix != 6 {
		t.Errorf("fattree(9 hosts) default radix %d, want 6", r.Radix)
	}
}

func TestSpecValidationPanics(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		hosts int
		msg   string
	}{
		{"one host", Spec{}, 1, "at least two hosts"},
		{"backtoback n=3", Spec{Kind: BackToBack}, 3, "exactly 2 hosts"},
		{"odd radix", Spec{Kind: FatTree, Radix: 3}, 4, "even"},
		{"radix too small", Spec{Kind: FatTree, Radix: 2}, 4, "at most 2 hosts"},
		{"negative credits", Spec{Credits: -1}, 2, "positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic")
				}
				if !strings.Contains(fmt.Sprint(r), c.msg) {
					t.Errorf("panic %q does not mention %q", r, c.msg)
				}
			}()
			c.spec.resolve(testCfg(true), c.hosts)
		})
	}
}

// TestIdealTierClosedForm pins the calibrated two-endpoint tier (two hosts,
// back to back or on one switch) to the paper's closed form: a frame waits
// for its source egress, serializes (cfg.SerTime), then flies for
// cfg.FlightTime(). The transport ACK rides the same path back after the
// configured turnaround.
func TestIdealTierClosedForm(t *testing.T) {
	type send struct {
		at             units.Time
		src, dst, size int
	}
	for _, tier := range []struct {
		kind Kind
		idle units.Time // literal 8-byte one-way latency
	}{
		// (8+30) B x 80 ps = 3.04 ns serialization, 270 ns wire, and the
		// switch's 108 ns forwarding latency when present.
		{BackToBack, units.Nanoseconds(273.04)},
		{SingleSwitch, units.Nanoseconds(273.04 + 108)},
	} {
		cfg := testCfg(tier.kind == SingleSwitch)
		ser, fly := cfg.SerTime, cfg.FlightTime()
		if got := ser(8) + fly; got != tier.idle {
			t.Fatalf("%v: closed form gives %v, want %v", tier.kind, got, tier.idle)
		}
		cases := []struct {
			name         string
			turnaround   units.Time
			ack          bool // host 1 acks every data frame
			sends        []send
			want0, want1 []units.Time // arrivals at host 0 / host 1
		}{
			{name: "idle", sends: []send{{0, 0, 1, 8}},
				want1: []units.Time{tier.idle}},
			{name: "pipelined", sends: []send{{0, 0, 1, 8}, {0, 0, 1, 64}, {units.Nanoseconds(1), 0, 1, 2048}},
				want1: []units.Time{ser(8) + fly, ser(8) + ser(64) + fly, ser(8) + ser(64) + ser(2048) + fly}},
			{name: "reverse independent", sends: []send{{0, 0, 1, 8}, {0, 0, 1, 64}, {0, 1, 0, 8}},
				want0: []units.Time{ser(8) + fly},
				want1: []units.Time{ser(8) + fly, ser(8) + ser(64) + fly}},
			{name: "ack", ack: true, sends: []send{{0, 0, 1, 8}},
				want0: []units.Time{ser(8) + fly + ser(0) + fly},
				want1: []units.Time{ser(8) + fly}},
			{name: "ack turnaround", turnaround: units.Nanoseconds(50), ack: true, sends: []send{{0, 0, 1, 0}},
				want0: []units.Time{ser(0) + fly + units.Nanoseconds(50) + ser(0) + fly},
				want1: []units.Time{ser(0) + fly}},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", tier.kind, c.name), func(t *testing.T) {
				cfg := cfg
				cfg.AckTurnaround = c.turnaround
				k, fab, ports := build(t, cfg, Spec{Kind: tier.kind}, 2)
				ports[1].ack = c.ack
				for i, s := range c.sends {
					k.At(s.at, func() {
						f := fab.NewFrame()
						f.Kind = fabric.Data
						f.Src, f.Dst, f.Bytes = s.src, s.dst, s.size
						f.Op = fabric.TxOp{SrcQPN: 7, Counter: uint16(42 + i)}
						fab.Send(f)
					})
				}
				k.Run()
				for id, want := range [][]units.Time{c.want0, c.want1} {
					if fmt.Sprint(ports[id].at) != fmt.Sprint(want) {
						t.Errorf("host %d arrivals %v, want %v", id, ports[id].at, want)
					}
				}
				if c.ack {
					if len(ports[0].acks) != 1 || ports[0].acks[0] != (fabric.AckInfo{QPN: 7, Counter: 42}) {
						t.Errorf("initiator got acks %+v, want one for QPN 7 counter 42", ports[0].acks)
					}
					if fab.Delivered[fabric.Data] != 1 || fab.Delivered[fabric.TransportAck] != 1 {
						t.Errorf("delivered counts: %v", fab.Delivered)
					}
				}
				if fab.InUseFrames() != 0 {
					t.Errorf("%d frames leaked", fab.InUseFrames())
				}
			})
		}
	}
}

// rxFunc adapts a func to fabric.Port.
type rxFunc func(*fabric.Frame)

func (fn rxFunc) RxFrame(f *fabric.Frame) { fn(f) }

// hit is one delivery: when, what and where.
type hit struct {
	at   units.Time
	kind fabric.FrameKind
	dst  int
}

// refNetwork is the paper's two-endpoint Network component reduced to its
// definition: each host egress serializes its frames in FIFO order
// (cfg.SerTime), then every frame flies for cfg.FlightTime(); each
// delivered data frame is answered by a zero-byte ACK after
// cfg.AckTurnaround.
type refNetwork struct {
	k    *sim.Kernel
	cfg  fabric.Config
	busy [2]units.Time
	hits []hit
}

func (r *refNetwork) send(kind fabric.FrameKind, src, dst, b int) {
	start := units.Max(r.k.Now(), r.busy[src])
	r.busy[src] = start + r.cfg.SerTime(b)
	r.k.At(r.busy[src]+r.cfg.FlightTime(), func() {
		r.hits = append(r.hits, hit{r.k.Now(), kind, dst})
		if kind != fabric.Data {
			return
		}
		if r.cfg.AckTurnaround > 0 {
			r.k.After(r.cfg.AckTurnaround, func() { r.send(fabric.TransportAck, dst, src, 0) })
			return
		}
		r.send(fabric.TransportAck, dst, src, 0)
	})
}

// TestIdealTierMatchesNetwork drives one mixed schedule through the
// two-host ideal tier and through refNetwork and requires identical
// deliveries, the bit-for-bit compatibility the golden fixture relies on.
// Unlike TestIdealTierClosedForm's single-shape cases, the schedule mixes
// sizes, pipelined sends, a reverse-direction frame and ACKs that share
// each egress with data.
func TestIdealTierMatchesNetwork(t *testing.T) {
	sends := []struct {
		at             units.Time
		src, dst, size int
	}{
		{0, 0, 1, 8},
		{0, 0, 1, 64},
		{units.Nanoseconds(100), 1, 0, 8},
		{units.Nanoseconds(400), 0, 1, 2048},
	}
	for _, useSwitch := range []bool{false, true} {
		for _, turnaround := range []units.Time{0, units.Nanoseconds(50)} {
			cfg := testCfg(useSwitch)
			cfg.AckTurnaround = turnaround

			kR := sim.NewKernel()
			ref := &refNetwork{k: kR, cfg: cfg}
			for _, s := range sends {
				kR.At(s.at, func() { ref.send(fabric.Data, s.src, s.dst, s.size) })
			}
			kR.Run()

			k := sim.NewKernel()
			fab := NewFabric(k, cfg, Spec{}, 2)
			var got []hit
			for id := 0; id < 2; id++ {
				fab.Attach(id, rxFunc(func(f *fabric.Frame) {
					got = append(got, hit{k.Now(), f.Kind, id})
					if f.Kind == fabric.Data {
						fab.SendAck(fab.AckFor(f, fabric.AckInfo{}))
					}
					f.Release()
				}))
			}
			for _, s := range sends {
				sendAt(k, fab, s.at, s.src, s.dst, s.size)
			}
			k.Run()

			if len(ref.hits) != 2*len(sends) {
				t.Fatalf("reference delivered %d frames, want %d", len(ref.hits), 2*len(sends))
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.hits) {
				t.Errorf("useSwitch=%v turnaround=%v: deliveries %v, want %v", useSwitch, turnaround, got, ref.hits)
			}
			if fab.InUseFrames() != 0 {
				t.Errorf("useSwitch=%v turnaround=%v: %d frames leaked", useSwitch, turnaround, fab.InUseFrames())
			}
		}
	}
}

// TestStarUncontendedLatency pins the engine's per-hop arithmetic: one
// 8-byte frame through an N=3 star costs two serializations, the full
// cable flight (two half-cables) and one switch forwarding latency.
func TestStarUncontendedLatency(t *testing.T) {
	k, fab, ports := build(t, testCfg(true), Spec{}, 3)
	sendAt(k, fab, 0, 0, 1, 8)
	k.Run()
	if len(ports[1].at) != 1 {
		t.Fatal("no delivery")
	}
	ser := units.Nanoseconds(3.04) // (8+30)*80ps
	want := 2*ser + units.Nanoseconds(270) + units.Nanoseconds(108)
	if ports[1].at[0] != want {
		t.Errorf("arrival %v, want %v", ports[1].at[0], want)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestStarOutputPortContention: two same-instant frames from different
// sources to one destination share the switch output port; the second is
// serialized behind the first.
func TestStarOutputPortContention(t *testing.T) {
	k, fab, ports := build(t, testCfg(true), Spec{}, 3)
	sendAt(k, fab, 0, 0, 2, 8)
	sendAt(k, fab, 0, 1, 2, 8)
	k.Run()
	if len(ports[2].at) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(ports[2].at))
	}
	ser := units.Nanoseconds(3.04)
	if gap := ports[2].at[1] - ports[2].at[0]; gap != ser {
		t.Errorf("contended spacing %v, want one serialization %v", gap, ser)
	}
	if fab.MaxSwitchQueue() < 1 {
		t.Error("no switch queueing observed")
	}
}

// TestCreditBackpressure: with one credit per link, a burst from one host
// is paced by credit returns, stalling the injection port.
func TestCreditBackpressure(t *testing.T) {
	const burst = 5
	k, fab, ports := build(t, testCfg(true), Spec{Credits: 1}, 3)
	k.At(0, func() {
		for i := 0; i < burst; i++ {
			f := fab.NewFrame()
			f.Kind = fabric.Data
			f.Src = 0
			f.Dst = 1
			f.Bytes = 8
			fab.Send(f)
		}
	})
	k.Run()
	if len(ports[1].at) != burst {
		t.Fatalf("got %d deliveries, want %d", len(ports[1].at), burst)
	}
	// With ample credits the injection port streams frames one
	// serialization apart; with one credit the next frame waits for the
	// previous one to clear the switch, so spacing must far exceed it.
	ser := units.Nanoseconds(3.04)
	for i := 1; i < burst; i++ {
		if gap := ports[1].at[i] - ports[1].at[i-1]; gap <= ser {
			t.Errorf("delivery %d only %v after %d; credits did not pace", i, gap, i-1)
		}
	}
	stats := fab.PortStats()
	var stalls uint64
	for _, s := range stats {
		if s.Name == "host0.egress" {
			stalls = s.CreditStalls
			if s.MaxQueue == 0 {
				t.Error("host0.egress never queued under credit pressure")
			}
		}
	}
	if stalls == 0 {
		t.Error("no credit stalls recorded")
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked", fab.InUseFrames())
	}
}

// TestFatTreeShapeAndRouting pins the compiled Clos: 8 hosts at radix 4
// give 4 leaves and 2 spines, with destination-based up-path selection.
func TestFatTreeShapeAndRouting(t *testing.T) {
	_, fab, _ := build(t, testCfg(true), Spec{Kind: FatTree}, 8)
	sws := fab.Switches()
	if len(sws) != 6 {
		t.Fatalf("%d switches, want 4 leaves + 2 spines", len(sws))
	}
	leaf0 := sws[0]
	if leaf0.Name() != "leaf0" || leaf0.Ports() != 4 {
		t.Errorf("leaf0: %q with %d ports, want 4", leaf0.Name(), leaf0.Ports())
	}
	// Host 1 is on leaf0 port 1; host 7 is cross-leaf via spine 7%2=1,
	// i.e. up port index 2+1.
	if got := leaf0.Route(1); got != 1 {
		t.Errorf("leaf0 route to host1 = port %d, want 1 (down)", got)
	}
	if got := leaf0.Route(7); got != 3 {
		t.Errorf("leaf0 route to host7 = port %d, want 3 (up to spine1)", got)
	}
	spine1 := sws[5]
	if spine1.Name() != "spine1" || spine1.Ports() != 4 {
		t.Errorf("spine1: %q with %d ports, want 4", spine1.Name(), spine1.Ports())
	}
	if got := spine1.Route(7); got != 3 {
		t.Errorf("spine1 route to host7 = port %d, want 3 (leaf3)", got)
	}
}

// TestFatTreePartialLeaf: a host count that only part-fills the last leaf
// must compile without phantom (unwired) ports and still route to it.
func TestFatTreePartialLeaf(t *testing.T) {
	k, fab, ports := build(t, testCfg(true), Spec{Kind: FatTree, Radix: 4}, 5)
	// 5 hosts at radix 4: leaves 0-1 full (2 hosts), leaf2 holds host 4
	// alone — one down port plus two up ports.
	sws := fab.Switches()
	if len(sws) != 5 {
		t.Fatalf("%d switches, want 3 leaves + 2 spines", len(sws))
	}
	if leaf2 := sws[2]; leaf2.Name() != "leaf2" || leaf2.Ports() != 3 {
		t.Errorf("leaf2: %q with %d ports, want 3 (1 down + 2 up)", leaf2.Name(), leaf2.Ports())
	}
	for _, ps := range fab.PortStats() {
		if ps.Name == "" {
			t.Error("PortStats contains an unwired phantom port")
		}
	}
	sendAt(k, fab, 0, 0, 4, 8) // cross-leaf into the partial leaf
	k.Run()
	if len(ports[4].at) != 1 {
		t.Fatal("no delivery to the partial leaf's host")
	}
}

// TestFatTreeLatency pins same-leaf (one switch) vs cross-leaf (three
// switch) path latencies.
func TestFatTreeLatency(t *testing.T) {
	k, fab, ports := build(t, testCfg(true), Spec{Kind: FatTree}, 8)
	sendAt(k, fab, 0, 0, 1, 8) // same leaf
	sendAt(k, fab, 0, 2, 5, 8) // cross leaf: leaf1 -> spine -> leaf2
	k.Run()
	ser := units.Nanoseconds(3.04)
	hop := units.Nanoseconds(135) // WireProp / 2
	sw := units.Nanoseconds(108)
	wantSame := 2*ser + 2*hop + sw
	wantCross := 4*ser + 4*hop + 3*sw
	if len(ports[1].at) != 1 || ports[1].at[0] != wantSame {
		t.Errorf("same-leaf arrival %v, want %v", ports[1].at, wantSame)
	}
	if len(ports[5].at) != 1 || ports[5].at[0] != wantCross {
		t.Errorf("cross-leaf arrival %v, want %v", ports[5].at, wantCross)
	}
}

// TestSparseOutOfOrderAttach: ids need not be dense or ordered.
func TestSparseOutOfOrderAttach(t *testing.T) {
	k := sim.NewKernel()
	fab := NewFabric(k, testCfg(true), Spec{}, 4)
	ports := map[int]*port{}
	for _, id := range []int{3, 0, 2, 1} {
		p := &port{k: k, fab: fab}
		ports[id] = p
		fab.Attach(id, p)
	}
	sendAt(k, fab, 0, 3, 0, 8)
	k.Run()
	if len(ports[0].at) != 1 {
		t.Fatal("sparse-order attach broke delivery")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	k := sim.NewKernel()
	fab := NewFabric(k, testCfg(true), Spec{}, 3)
	fab.Attach(0, &port{k: k, fab: fab})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate attach did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "port id 0") || !strings.Contains(msg, "switch(") {
			t.Errorf("panic %q does not name the port and topology", msg)
		}
	}()
	fab.Attach(0, &port{k: k, fab: fab})
}

// TestSendPanicsNamePortAndTopology covers the two failure shapes on
// either end of a frame: an unattached port, and a port attached under an
// id the topology never routed.
func TestSendPanicsNamePortAndTopology(t *testing.T) {
	expectPanic := func(t *testing.T, wantSub ...string) {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg := fmt.Sprint(r)
		for _, sub := range wantSub {
			if !strings.Contains(msg, sub) {
				t.Errorf("panic %q does not contain %q", msg, sub)
			}
		}
	}

	t.Run("unattached", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(true), Spec{}, 3)
		defer expectPanic(t, "no attached destination port 9", "switch(hosts=3")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 9}) })
		k.Run()
	})

	t.Run("attached but unrouted", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(true), Spec{}, 3)
		fab.Attach(7, &port{k: k, fab: fab}) // beyond the 3 routed hosts
		defer expectPanic(t, "port 7 is attached but not routed", "hosts 0..2", "switch(hosts=3")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 7}) })
		k.Run()
	})

	t.Run("unattached source", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(true), Spec{}, 3)
		defer expectPanic(t, "no attached source port 9", "switch(hosts=3")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 9, Dst: 1}) })
		k.Run()
	})

	t.Run("unrouted source", func(t *testing.T) {
		k, fab, _ := build(t, testCfg(true), Spec{Kind: FatTree}, 4)
		fab.Attach(11, &port{k: k, fab: fab})
		defer expectPanic(t, "source port 11", "fattree(radix=4")
		k.At(0, func() { fab.Send(&fabric.Frame{Kind: fabric.Data, Src: 11, Dst: 0}) })
		k.Run()
	})
}

// TestAckRoundTripOverStar: the transport ACK crosses the star back to the
// initiator, and both pooled frames return to the pool.
func TestAckRoundTripOverStar(t *testing.T) {
	k, fab, ports := build(t, testCfg(true), Spec{}, 4)
	ports[2].ack = true
	sendAt(k, fab, 0, 0, 2, 8)
	k.Run()
	if len(ports[0].got) != 1 || ports[0].got[0] != fabric.TransportAck {
		t.Fatalf("no transport ack at initiator: %v", ports[0].got)
	}
	if fab.Delivered[fabric.Data] != 1 || fab.Delivered[fabric.TransportAck] != 1 {
		t.Errorf("delivered counts: %v", fab.Delivered)
	}
	if fab.InUseFrames() != 0 {
		t.Errorf("%d frames leaked after ack round trip", fab.InUseFrames())
	}
}

// TestOnDepthHook observes queue growth during contention.
func TestOnDepthHook(t *testing.T) {
	k, fab, _ := build(t, testCfg(true), Spec{}, 4)
	depthHits := map[string]int{}
	fab.OnDepth = func(at units.Time, port string, depth int) {
		if depth > depthHits[port] {
			depthHits[port] = depth
		}
	}
	for src := 0; src < 3; src++ {
		sendAt(k, fab, 0, src, 3, 1024)
	}
	k.Run()
	if depthHits["sw0.port3"] < 2 {
		t.Errorf("incast port depth %d, want >= 2 (hits: %v)", depthHits["sw0.port3"], depthHits)
	}
}

// TestDeterminism: two identical contended runs deliver at identical
// times.
func TestDeterminism(t *testing.T) {
	run := func() []units.Time {
		k, fab, ports := build(t, testCfg(true), Spec{Kind: FatTree, Credits: 2}, 8)
		for src := 1; src < 8; src++ {
			for i := 0; i < 5; i++ {
				sendAt(k, fab, units.Time(i)*units.Nanoseconds(50), src, 0, 512)
			}
		}
		k.Run()
		return ports[0].at
	}
	a, b := run(), run()
	if len(a) != 35 || len(a) != len(b) {
		t.Fatalf("delivery counts %d vs %d, want 35", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: run not deterministic", i, a[i], b[i])
		}
	}
}
