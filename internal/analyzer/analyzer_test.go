package analyzer

import (
	"strings"
	"testing"

	"breakband/internal/pcie"
	"breakband/internal/units"
)

func tlp(typ pcie.TLPType, seq uint64, payload int, addr uint64) *pcie.TLP {
	return &pcie.TLP{Type: typ, Seq: seq, Data: make([]byte, payload), Addr: addr}
}

func TestCaptureAndFilter(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0x100))
	a.ObserveTLP(20, pcie.Up, tlp(pcie.MWr, 0, 64, 0x200))
	a.ObserveDLLP(30, pcie.Up, &pcie.DLLP{Type: pcie.Ack, AckSeq: 0})
	if len(a.Records()) != 3 {
		t.Fatalf("captured %d", len(a.Records()))
	}
	down := a.TLPs(pcie.Down, pcie.MWr, 64, 64)
	if len(down) != 1 || down[0].Addr != 0x100 {
		t.Errorf("downstream filter: %+v", down)
	}
	if got := a.TLPs(pcie.Down, pcie.MWr, 65, 0); len(got) != 0 {
		t.Error("min-payload filter leaked")
	}
}

func TestDisabledAndClear(t *testing.T) {
	a := New("n0")
	a.SetEnabled(false)
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	if len(a.Records()) != 0 {
		t.Error("disabled analyzer recorded")
	}
	a.SetEnabled(true)
	a.ObserveTLP(10, pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	a.Clear()
	if len(a.Records()) != 0 {
		t.Error("Clear left records")
	}
}

func TestDeltas(t *testing.T) {
	recs := []Record{
		{At: units.Nanoseconds(100)},
		{At: units.Nanoseconds(380)},
		{At: units.Nanoseconds(660)},
	}
	s := Deltas(recs)
	if s.N() != 2 || s.Mean() != 280 {
		t.Errorf("deltas n=%d mean=%v", s.N(), s.Mean())
	}
	if Deltas(nil).N() != 0 {
		t.Error("empty deltas nonzero")
	}
}

func TestAckRoundTrips(t *testing.T) {
	a := New("n0")
	// Upstream MWr at 100ns, its ACK (downstream) at 375ns -> half RT 137.5.
	a.ObserveTLP(units.Nanoseconds(100), pcie.Up, tlp(pcie.MWr, 7, 64, 0))
	a.ObserveDLLP(units.Nanoseconds(375), pcie.Down, &pcie.DLLP{Type: pcie.Ack, AckSeq: 7})
	// Unrelated ACK must not match.
	a.ObserveDLLP(units.Nanoseconds(999), pcie.Down, &pcie.DLLP{Type: pcie.Ack, AckSeq: 8})
	s := a.AckRoundTrips(pcie.Up, pcie.MWr)
	if s.N() != 1 || s.Mean() != 137.5 {
		t.Errorf("round trips n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestPairDeltas(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(units.Nanoseconds(0), pcie.Down, tlp(pcie.MWr, 0, 64, 0))
	a.ObserveTLP(units.Nanoseconds(50), pcie.Down, tlp(pcie.MWr, 1, 64, 0)) // ignored: already armed
	a.ObserveTLP(units.Nanoseconds(700), pcie.Up, tlp(pcie.MWr, 0, 64, 0))
	a.ObserveTLP(units.Nanoseconds(1000), pcie.Down, tlp(pcie.MWr, 2, 64, 0))
	a.ObserveTLP(units.Nanoseconds(1800), pcie.Up, tlp(pcie.MWr, 1, 64, 0))
	s := a.PairDeltas(
		func(r Record) bool { return r.Dir == pcie.Down && r.IsTLP },
		func(r Record) bool { return r.Dir == pcie.Up && r.IsTLP },
	)
	if s.N() != 2 {
		t.Fatalf("pairs = %d", s.N())
	}
	if s.Mean() != (700+800)/2 {
		t.Errorf("pair mean = %v", s.Mean())
	}
}

func TestFormatTrace(t *testing.T) {
	a := New("n0")
	a.ObserveTLP(units.Nanoseconds(100), pcie.Down, tlp(pcie.MWr, 3, 64, 0xd000))
	a.ObserveDLLP(units.Nanoseconds(105), pcie.Up, &pcie.DLLP{Type: pcie.Ack, AckSeq: 3})
	out := a.FormatTrace(0)
	for _, want := range []string{"MWr", "Ack", "down", "up", "0xd000"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(New("x").FormatTrace(0), "TIME") {
		t.Error("header missing")
	}
	a.ObserveTLP(units.Nanoseconds(200), pcie.Down, tlp(pcie.MWr, 4, 64, 0))
	if !strings.Contains(a.FormatTrace(1), "more records") {
		t.Error("truncation note missing")
	}
}

func TestKind(t *testing.T) {
	r := Record{IsTLP: true, TLPType: pcie.MWr}
	if r.Kind() != "MWr" {
		t.Error("TLP kind")
	}
	r = Record{IsTLP: false, DLLPType: pcie.UpdateFC}
	if r.Kind() != "UpdateFC" {
		t.Error("DLLP kind")
	}
}
