package fabric_test

// These tests pin the Port and Config contract of this package against
// internal/topo's Fabric, its one delivery implementation, in the
// calibrated two-host tier that reproduces the paper's Network = Wire +
// Switch model.

import (
	"strings"
	"testing"

	"breakband/internal/fabric"
	"breakband/internal/sim"
	"breakband/internal/topo"
	"breakband/internal/units"
)

func cfgDirect() fabric.Config {
	return fabric.Config{
		WireProp:      units.Nanoseconds(270),
		WirePerByte:   units.Time(80),
		FrameOverhead: 30,
		SwitchLatency: units.Nanoseconds(108),
		UseSwitch:     false,
	}
}

// port records arrival times and releases every frame.
type port struct {
	k  *sim.Kernel
	at []units.Time
}

func (p *port) RxFrame(f *fabric.Frame) {
	p.at = append(p.at, p.k.Now())
	f.Release()
}

// build attaches ports in the given id order to a two-host fabric; the
// auto spec on two hosts is the calibrated tier.
func build(cfg fabric.Config, ids ...int) (*sim.Kernel, *topo.Fabric, map[int]*port) {
	k := sim.NewKernel()
	n := topo.NewFabric(k, cfg, topo.Spec{}, 2)
	ports := map[int]*port{}
	for _, id := range ids {
		ports[id] = &port{k: k}
		n.Attach(id, ports[id])
	}
	return k, n, ports
}

// sendAt schedules a pooled data frame of b payload bytes.
func sendAt(k *sim.Kernel, n *topo.Fabric, at units.Time, src, dst, b int) {
	k.At(at, func() {
		f := n.NewFrame()
		f.Kind = fabric.Data
		f.Src, f.Dst, f.Bytes = src, dst, b
		n.Send(f)
	})
}

// TestOneWayMatchesSend pins the one-way time the analytic models use
// (Config.SerTime + Config.FlightTime, as in perftest's saturation model)
// to Send's arrival on an idle egress, across sizes, with and without the
// switch.
func TestOneWayMatchesSend(t *testing.T) {
	for _, useSwitch := range []bool{false, true} {
		cfg := cfgDirect()
		cfg.UseSwitch = useSwitch
		for _, b := range []int{0, 8, 64, 4096} {
			k, n, ports := build(cfg, 0, 1)
			sendAt(k, n, 0, 0, 1, b)
			k.Run()
			oneWay := cfg.SerTime(b) + cfg.FlightTime()
			if len(ports[1].at) != 1 || ports[1].at[0] != oneWay {
				t.Errorf("useSwitch=%v, %d B: Send arrived at %v, one-way is %v", useSwitch, b, ports[1].at, oneWay)
			}
		}
	}
}

func TestUnknownPortPanics(t *testing.T) {
	k, n, _ := build(cfgDirect(), 0, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send to unknown port did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "port 9") {
			t.Errorf("panic %q does not name port 9", r)
		}
	}()
	k.At(0, func() { n.Send(&fabric.Frame{Kind: fabric.Data, Src: 0, Dst: 9}) })
	k.Run()
}

func TestDuplicateAttachPanics(t *testing.T) {
	k, n, _ := build(cfgDirect(), 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	n.Attach(0, &port{k: k})
}

// TestSparseOutOfOrderAttach: ports may attach in any order; each egress
// keeps its own serialization state whatever the order.
func TestSparseOutOfOrderAttach(t *testing.T) {
	cfg := cfgDirect()
	k, n, ports := build(cfg, 1, 0)
	sendAt(k, n, 0, 1, 0, 8)
	sendAt(k, n, 0, 0, 1, 8)
	k.Run()
	want := cfg.SerTime(8) + cfg.FlightTime()
	for id, p := range ports {
		if len(p.at) != 1 || p.at[0] != want {
			t.Errorf("port %d arrivals %v, want [%v]", id, p.at, want)
		}
	}
}
