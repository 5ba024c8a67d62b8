package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// flatSize is the memory the differential test drives: three full pages
// plus a partial fourth, so the last page reaches past the end of memory.
const flatSize = 3*pageSize + 1000

// flatMemory is the reference model: one eagerly allocated []byte, a bump
// allocator and a linear scan of the watched regions. The paged Memory
// must agree with it on every byte, counter and bounds panic.
type flatMemory struct {
	buf           []byte
	next          uint64
	watched       []Region
	writes        uint64
	watchedWrites uint64
}

func (f *flatMemory) inRange(addr uint64, n int) bool {
	return n >= 0 && addr <= uint64(len(f.buf)) && uint64(n) <= uint64(len(f.buf))-addr
}

// replay drives m and a flat reference through the operations encoded in
// prog and fails t on the first disagreement. Every operation reads a
// fixed-size record from prog: an opcode byte, a 3-byte address and a
// 2-byte length.
func replay(t *testing.T, prog []byte) {
	t.Helper()
	m := New(flatSize)
	f := &flatMemory{buf: make([]byte, flatSize)}
	var stamp byte
	for step := 0; len(prog) >= 6; step, prog = step+1, prog[6:] {
		op := prog[0] % 8
		addr := uint64(prog[1])<<16 | uint64(prog[2])<<8 | uint64(prog[3])
		addr %= flatSize + 8 // a few addresses past the end, to hit the bounds panics
		switch {
		case prog[0]&0xc0 == 0x80:
			// Bias towards page boundaries...
			addr = (addr>>pageShift)<<pageShift + pageSize - uint64(prog[3]%16)
		case prog[0]&0xc0 == 0xc0:
			// ...the last bytes of memory...
			addr = flatSize - uint64(prog[3]%16)
		case prog[0]&0xc0 == 0x40 && len(f.watched) > 0:
			// ...and the edges of the watched regions.
			r := f.watched[int(prog[1])%len(f.watched)]
			addr = r.Base - min(r.Base, uint64(prog[3]%4))
			if prog[2]&1 != 0 {
				addr = r.End() - 1 + uint64(prog[3]%3)
			}
		}
		n := int(binary.BigEndian.Uint16(prog[4:6])) % (2*pageSize + 2)
		if prog[0]&0x20 == 0 {
			n %= 80 // mostly small accesses, like CQEs and WQEs
		}
		where := fmt.Sprintf("step %d op %d addr %#x len %d", step, op, addr, n)

		switch op {
		case 0: // Alloc a region and, in address order, watch it
			size, align := uint64(n)+1, uint64(1)<<(prog[3]%7)
			base := (f.next + align - 1) &^ (align - 1)
			fits := base <= flatSize && size <= flatSize-base
			var r Region
			if msg := panicMsg(func() { r = m.Alloc("r", size, align) }); (msg == "") != fits {
				t.Fatalf("%s: Alloc panic %q, reference fits=%v", where, msg, fits)
			}
			if !fits {
				continue
			}
			if r.Base != base || r.Size != size {
				t.Fatalf("%s: Alloc = %+v, want base %#x size %d", where, r, base, size)
			}
			f.next = base + size
			if prog[4]&1 == 0 {
				m.Watch(r)
				f.watched = append(f.watched, r)
			}
		case 1, 2, 3: // Write
			data := make([]byte, n)
			for i := range data {
				stamp++
				data[i] = stamp | 1 // never zero, so a lost store shows
			}
			ok := f.inRange(addr, n)
			if msg := panicMsg(func() { m.Write(addr, data) }); (msg == "") != ok {
				t.Fatalf("%s: Write panic %q, reference in range=%v", where, msg, ok)
			} else if msg != "" && !strings.HasPrefix(msg, "memsim: write out of range") {
				t.Fatalf("%s: Write panic %q", where, msg)
			}
			if !ok {
				continue
			}
			copy(f.buf[addr:], data)
			f.writes++
			for _, r := range f.watched {
				if n > 0 && addr < r.End() && r.Base < addr+uint64(n) {
					f.watchedWrites++
					break
				}
			}
		case 4: // Read
			ok := f.inRange(addr, n)
			var got []byte
			if msg := panicMsg(func() { got = m.Read(addr, n) }); (msg == "") != ok {
				t.Fatalf("%s: Read panic %q, reference in range=%v", where, msg, ok)
			}
			if ok && !bytes.Equal(got, f.buf[addr:addr+uint64(n)]) {
				t.Fatalf("%s: Read differs from the reference", where)
			}
		case 5, 6: // ReadInto a dirty destination
			dst := bytes.Repeat([]byte{0xee}, n)
			ok := f.inRange(addr, n)
			if msg := panicMsg(func() { m.ReadInto(addr, dst) }); (msg == "") != ok {
				t.Fatalf("%s: ReadInto panic %q, reference in range=%v", where, msg, ok)
			}
			if ok && !bytes.Equal(dst, f.buf[addr:addr+uint64(n)]) {
				t.Fatalf("%s: ReadInto differs from the reference", where)
			}
		case 7: // ByteAt
			ok := f.inRange(addr, 1)
			var got byte
			if msg := panicMsg(func() { got = m.ByteAt(addr) }); (msg == "") != ok {
				t.Fatalf("%s: ByteAt panic %q, reference in range=%v", where, msg, ok)
			}
			if ok && got != f.buf[addr] {
				t.Fatalf("%s: ByteAt = %d, reference %d", where, got, f.buf[addr])
			}
		}
		if m.Writes() != f.writes || m.WatchedWrites() != f.watchedWrites {
			t.Fatalf("%s: Writes=%d WatchedWrites=%d, reference %d %d",
				where, m.Writes(), m.WatchedWrites(), f.writes, f.watchedWrites)
		}
	}
	if got := m.Read(0, flatSize); !bytes.Equal(got, f.buf) {
		t.Fatal("final memory image differs from the reference")
	}
}

// panicMsg runs fn and returns its panic message, or "" if it returned.
func panicMsg(fn func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	fn()
	return ""
}

// TestPagedMatchesFlat replays seeded random operation sequences against the
// flat reference memory.
func TestPagedMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		prog := make([]byte, 6*400)
		rand.New(rand.NewSource(seed)).Read(prog)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { replay(t, prog) })
	}
}

// FuzzPagedMatchesFlat is the fuzzing form of TestPagedMatchesFlat:
//
//	go test -run '^$' -fuzz FuzzPagedMatchesFlat -fuzztime 10s ./internal/memsim
func FuzzPagedMatchesFlat(f *testing.F) {
	// Seeds: a write spanning a page boundary read back across it, a write
	// of the very last byte, and reads of an untouched page.
	f.Add([]byte{0xa1, 0, 0, 0, 0x00, 0x40, 0x04, 0, 0, 0, 0, 0x60})
	f.Add([]byte{0xc1, 0, 0, 1, 0, 1, 0xc7, 0, 0, 1, 0, 1})
	f.Add([]byte{0x04, 0x02, 0x10, 0, 0, 64, 0x07, 0x03, 0, 0, 0, 0})
	f.Fuzz(replay)
}

// pagesHeld counts the allocated pages of m.
func pagesHeld(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestSparseFootprint pins that backing is paid per written page: one
// Write at the last byte of a 256 MiB memory allocates one page (plus the
// page table), a write across a page boundary allocates both pages, and
// reads never allocate pages.
func TestSparseFootprint(t *testing.T) {
	m := New(256 << 20)
	m.Read(100<<20, 4096)
	m.ByteAt(m.Size() - 1)
	if got := pagesHeld(m); got != 0 {
		t.Fatalf("reads allocated %d pages, want 0", got)
	}
	m.Write(m.Size()-1, []byte{7})
	if got := pagesHeld(m); got != 1 {
		t.Errorf("one write at Size()-1 holds %d pages, want 1", got)
	}
	if got := m.ByteAt(m.Size() - 1); got != 7 {
		t.Errorf("last byte = %d, want 7", got)
	}
	if got := m.Read(m.Size()-pageSize, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("untouched start of the last page = %v, want zeros", got)
	}
	// A write straddling a page boundary lands in both pages.
	m.Write(5*pageSize-3, []byte{1, 2, 3, 4, 5, 6})
	if got := pagesHeld(m); got != 3 {
		t.Errorf("after a page-crossing write %d pages are held, want 3", got)
	}
	if got := m.Read(5*pageSize-3, 6); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6}) {
		t.Errorf("read across the page boundary = %v", got)
	}
	buf := make([]byte, 8)
	if allocs := testing.AllocsPerRun(100, func() { m.Write(m.Size()-64, buf) }); allocs != 0 {
		t.Errorf("a write to an allocated page allocates %.1f times, want 0", allocs)
	}
}
