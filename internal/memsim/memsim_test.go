package memsim

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc("a", 10, 64)
	b := m.Alloc("b", 100, 64)
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Errorf("misaligned: %#x %#x", a.Base, b.Base)
	}
	if b.Base < a.End() {
		t.Error("regions overlap")
	}
	if len(m.Regions()) != 2 {
		t.Error("regions not tracked")
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	m := New(1024)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment did not panic")
		}
	}()
	m.Alloc("x", 8, 3)
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(128)
	defer func() {
		if recover() == nil {
			t.Error("exhausted alloc did not panic")
		}
	}()
	m.Alloc("big", 256, 8)
}

func TestWriteRead(t *testing.T) {
	m := New(1024)
	r := m.Alloc("buf", 64, 8)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.Write(r.Base, data)
	if got := m.Read(r.Base, 8); !bytes.Equal(got, data) {
		t.Errorf("read back %v", got)
	}
	if m.Writes() != 1 {
		t.Errorf("write count = %d", m.Writes())
	}
	var dst [4]byte
	m.ReadInto(r.Base+2, dst[:])
	if !bytes.Equal(dst[:], []byte{3, 4, 5, 6}) {
		t.Errorf("ReadInto = %v", dst)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(16)
	for _, f := range []func(){
		func() { m.Write(10, make([]byte, 8)) },
		func() { m.Read(0, 17) },
		func() { m.ReadInto(16, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 64}
	if !r.Contains(100, 64) || !r.Contains(163, 1) {
		t.Error("Contains false negative")
	}
	if r.Contains(99, 1) || r.Contains(164, 1) || r.Contains(160, 8) {
		t.Error("Contains false positive")
	}
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	m := New(1 << 16)
	r := m.Alloc("q", 4096, 64)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 || len(data) > 256 {
			return true
		}
		o := uint64(off) % (4096 - 256)
		m.Write(r.Base+o, data)
		return bytes.Equal(m.Read(r.Base+o, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAllocDisjoint(t *testing.T) {
	// Property: sequential allocations never overlap.
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		var regs []Region
		for i, s := range sizes {
			if i >= 32 {
				break
			}
			regs = append(regs, m.Alloc("r", uint64(s)+1, 8))
		}
		for i := 1; i < len(regs); i++ {
			if regs[i].Base < regs[i-1].End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLazyBackingReadsZeros(t *testing.T) {
	// The backing store is lazy: untouched addresses anywhere in the
	// modelled DRAM read as zeros, without ever allocating the full size.
	m := New(1 << 30)
	if got := m.Read((1<<30)-64, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("untouched high memory = %v, want zeros", got)
	}
	// ReadInto must overwrite stale destination bytes with those zeros.
	dst := []byte{1, 2, 3, 4}
	m.ReadInto((1<<29)+8, dst)
	if !bytes.Equal(dst, make([]byte, 4)) {
		t.Errorf("ReadInto left stale bytes: %v", dst)
	}
}

func TestLazyBackingGrowsAcrossBoundary(t *testing.T) {
	m := New(1 << 20)
	// A write spanning far past the initial backing commits fully and
	// reads back, with untouched neighbours still zero.
	data := bytes.Repeat([]byte{0xab}, 100)
	m.Write(99_000, data)
	if got := m.Read(99_000, 100); !bytes.Equal(got, data) {
		t.Errorf("read-back mismatch after growth")
	}
	if got := m.Read(98_000, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("neighbour below the write not zero: %v", got)
	}
	if got := m.Read(100_000, 64); !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("neighbour above the write not zero: %v", got)
	}
	if m.Size() != 1<<20 {
		t.Errorf("Size changed to %d", m.Size())
	}
}

func TestWriteAtEndOfMemory(t *testing.T) {
	m := New(4096)
	m.Write(4092, []byte{1, 2, 3, 4})
	if !bytes.Equal(m.Read(4092, 4), []byte{1, 2, 3, 4}) {
		t.Error("write at the last addresses lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range write not caught")
		}
	}()
	m.Write(4094, []byte{1, 2, 3, 4})
}

// TestOverflowingAddressesPanic pins the address-arithmetic overflow fix:
// addr+n used to wrap past zero for near-MaxUint64 addresses and sail
// through the bounds check, reading or writing wildly out of range.
func TestOverflowingAddressesPanic(t *testing.T) {
	m := New(1 << 20)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"write", func() { m.Write(math.MaxUint64-2, []byte{1, 2, 3, 4}) }},
		{"read", func() { m.Read(math.MaxUint64-2, 4) }},
		{"readinto", func() { m.ReadInto(math.MaxUint64-2, make([]byte, 4)) }},
		{"write-at-size", func() { m.Write(1<<20, []byte{1}) }},
		{"read-max-addr", func() { m.Read(math.MaxUint64, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: overflowing access did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
	// A zero-length access at the very end of memory is legal.
	m.Write(1<<20, nil)
	if got := m.Read(1<<20, 0); len(got) != 0 {
		t.Errorf("zero-length read returned %v", got)
	}
}

// TestRegionContainsOverflow pins the same wrap in Region.Contains:
// addr+n <= End() used to hold spuriously when addr+n wrapped.
func TestRegionContainsOverflow(t *testing.T) {
	r := Region{Name: "r", Base: 64, Size: 128}
	if r.Contains(math.MaxUint64-2, 8) {
		t.Error("Contains accepted a wrapping range")
	}
	if r.Contains(190, 8) {
		t.Error("Contains accepted a range past End")
	}
	if r.Contains(0, -1) {
		t.Error("Contains accepted a negative length")
	}
	if !r.Contains(64, 128) {
		t.Error("Contains rejected the exact region")
	}
	if !r.Contains(192, 0) {
		t.Error("Contains rejected a zero-length range at End")
	}
	// A region spanning the top of the address space must not let End()'s
	// own wraparound leak through Contains.
	top := Region{Name: "top", Base: math.MaxUint64 - 63, Size: 64}
	if !top.Contains(math.MaxUint64-63, 64) {
		t.Error("Contains rejected the exact top-of-memory region")
	}
	if top.Contains(math.MaxUint64-63, 65) {
		t.Error("Contains accepted one byte past the top region")
	}
}

// TestAllocOverflowPanics pins the bump-allocator wrap: base+n overflowing
// used to pass the out-of-memory check.
func TestAllocOverflowPanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("overflowing Alloc did not panic")
		}
	}()
	m.Alloc("huge", math.MaxUint64-16, 64)
}

// TestEnsureClampNearTop writes the top bytes of a memory whose size is not
// a multiple of the page size: the last page reaches past the size, and the
// write must land, with the untouched bytes below it still zero.
func TestEnsureClampNearTop(t *testing.T) {
	m := New(10000)
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	m.Write(9996, payload) // end=10000, inside the one page
	if !bytes.Equal(m.Read(9996, 4), payload) {
		t.Error("write near the top of memory lost after clamped growth")
	}
	if got := m.Read(9000, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("untouched bytes below the write read %v, want zeros", got)
	}
}

// TestByteAt pins the one-byte probe against ReadInto: the same bounds
// panic, zeros on untouched pages, and stores visible at once.
func TestByteAt(t *testing.T) {
	m := New(1 << 20)
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, addr := range []uint64{1 << 20, 1<<20 + 7, math.MaxUint64} {
		want := panicOf(func() { m.ReadInto(addr, make([]byte, 1)) })
		got := panicOf(func() { m.ByteAt(addr) })
		if want == nil || got != want {
			t.Errorf("ByteAt(%#x) panic = %v, ReadInto's = %v", addr, got, want)
		}
	}

	if got := m.ByteAt(1<<20 - 1); got != 0 {
		t.Errorf("byte past the backing store = %d, want 0", got)
	}
	m.Write(100, []byte{1, 2, 3})
	if got := m.ByteAt(101); got != 2 {
		t.Errorf("ByteAt after Write = %d, want 2", got)
	}
	if got := m.ByteAt(pageSize); got != 0 {
		t.Errorf("first byte of the untouched page after the written one = %d, want 0", got)
	}
	m.Write(101, []byte{9})
	if got := m.ByteAt(101); got != 9 {
		t.Errorf("ByteAt after overwrite = %d, want 9", got)
	}
}

// TestWatchedWrites pins the overlap test at the region boundaries: a write
// that ends at Base or starts at End does not count, one that spans into a
// watched region counts once, and adjacent watched regions merge.
func TestWatchedWrites(t *testing.T) {
	m := New(1 << 20)
	m.Alloc("pad", 256, 64)
	a := m.Alloc("a", 128, 64) // [256, 384)
	b := m.Alloc("b", 64, 64)  // [384, 448), adjacent to a
	m.Alloc("gap", 64, 64)     // [448, 512)
	c := m.Alloc("c", 64, 64)  // [512, 576)
	for _, r := range []Region{a, b, c} {
		m.Watch(r)
	}
	if len(m.watched) != 2 {
		t.Fatalf("watched spans = %v, want a+b merged and c", m.watched)
	}
	cases := []struct {
		name  string
		addr  uint64
		n     int
		count bool
	}{
		{"ends exactly at a.Base", a.Base - 8, 8, false},
		{"starts exactly at b.End", b.End(), 8, false},
		{"inside the gap", b.End() + 8, 16, false},
		{"ends exactly at c.Base", c.Base - 64, 64, false},
		{"starts exactly at c.End", c.End(), 8, false},
		{"first byte of a", a.Base, 1, true},
		{"last byte of b", b.End() - 1, 1, true},
		{"spans into a from below", a.Base - 4, 8, true},
		{"spans out of c", c.End() - 4, 8, true},
		{"spans a, b, the gap and c", a.Base - 8, int(c.End()-a.Base) + 16, true},
		{"empty write inside a", a.Base + 8, 0, false},
		{"far above every region", 1 << 19, 64, false},
	}
	for _, tc := range cases {
		before := m.WatchedWrites()
		m.Write(tc.addr, make([]byte, tc.n))
		got := m.WatchedWrites() - before
		want := uint64(0)
		if tc.count {
			want = 1
		}
		if got != want {
			t.Errorf("%s: [%#x, +%d) bumped the count by %d, want %d", tc.name, tc.addr, tc.n, got, want)
		}
	}
	if m.Writes() != uint64(len(cases)) {
		t.Errorf("Writes = %d, want %d", m.Writes(), len(cases))
	}
}

// TestWatchOrderPanics: regions must be watched in address order, without
// overlap.
func TestWatchOrderPanics(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc("a", 128, 64)
	b := m.Alloc("b", 128, 64)
	m.Watch(b)
	for _, tc := range []struct {
		name string
		r    Region
	}{
		{"out of order", a},
		{"same region twice", b},
		{"overlapping the tail", Region{Name: "x", Base: b.End() - 1, Size: 8}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "memsim: Watch") {
					t.Errorf("%s: panic %q, want the Watch order panic", tc.name, msg)
				}
			}()
			m.Watch(tc.r)
		}()
	}
}
