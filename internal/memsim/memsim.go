// Package memsim models the host memory system of a node.
//
// Memory is a flat byte-addressable space carved into named regions (queue
// rings, doorbell records, receive buffers). Because the simulation kernel
// serializes all activity on the virtual clock, write *timing* is owned by
// whoever performs the write (the Root Complex schedules its commit after the
// RC-to-MEM latency; CPU stores commit at the executing proc's current time),
// and a read simply observes the bytes committed so far — which is exactly
// the memory-consistency behaviour a single coherent host memory provides.
package memsim

import (
	"fmt"
)

// Region is a named allocation inside a Memory.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End reports the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether [addr, addr+n) lies inside the region. The
// comparison is phrased subtractively: addr+uint64(n) would wrap for
// near-MaxUint64 addresses and wrongly report containment.
func (r Region) Contains(addr uint64, n int) bool {
	if n < 0 || addr < r.Base || addr-r.Base > r.Size {
		return false
	}
	return uint64(n) <= r.Size-(addr-r.Base)
}

// Memory is one node's DRAM plus its allocation bookkeeping.
//
// The backing store is lazy: a fresh Memory owns no buffer, and the buffer
// grows geometrically as writes land. Addresses past the backing read as
// zeros, exactly like untouched DRAM. Regions are bump-allocated from zero,
// so the backing stays a tiny fraction of the modelled DRAM size — which is
// what lets the measurement campaign build hundreds of fresh systems
// without cycling gigabytes through the allocator.
type Memory struct {
	size    uint64
	buf     []byte // lazily grown; [len(buf), size) reads as zeros
	next    uint64
	regions []Region
	// writes counts committed store operations, a cheap invariant hook for
	// tests.
	writes uint64
	// watched holds the Watch spans in address order, adjacent regions
	// merged; watchedWrites counts the Writes that overlapped one.
	watched       []span
	watchedWrites uint64
}

// span is a half-open address range [lo, hi).
type span struct{ lo, hi uint64 }

// New creates a memory of the given size in bytes.
func New(size uint64) *Memory {
	return &Memory{size: size}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Writes reports the number of committed store operations.
func (m *Memory) Writes() uint64 { return m.writes }

// Alloc carves out a region of n bytes aligned to align (a power of two).
func (m *Memory) Alloc(name string, n, align uint64) Region {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsim: bad alignment %d", align))
	}
	base := (m.next + align - 1) &^ (align - 1)
	// Subtractive bounds check: base+n wraps for huge requests.
	if base > m.size || n > m.size-base {
		panic(fmt.Sprintf("memsim: out of memory allocating %q (%d bytes)", name, n))
	}
	r := Region{Name: name, Base: base, Size: n}
	m.next = base + n
	m.regions = append(m.regions, r)
	return r
}

// Watch adds r to the watched set: every later Write that overlaps it bumps
// WatchedWrites. A poller that found a watched ring empty can skip
// re-reading it while the count stands still, because Write is the only way
// a byte of memory changes. Regions must be watched in address order and
// must not overlap; Watch panics otherwise.
func (m *Memory) Watch(r Region) {
	if r.Size == 0 {
		return
	}
	if n := len(m.watched); n > 0 {
		last := &m.watched[n-1]
		if r.Base < last.hi {
			panic(fmt.Sprintf("memsim: Watch(%q at %#x) overlaps or precedes the watched range ending at %#x", r.Name, r.Base, last.hi))
		}
		if r.Base == last.hi {
			last.hi = r.End()
			return
		}
	}
	m.watched = append(m.watched, span{r.Base, r.End()})
}

// WatchedWrites reports how many Writes overlapped a watched region.
func (m *Memory) WatchedWrites() uint64 { return m.watchedWrites }

// overlapsWatched reports whether the non-empty range [addr, end) overlaps a
// watched span: a binary search for the first span ending past addr.
func (m *Memory) overlapsWatched(addr, end uint64) bool {
	w := m.watched
	lo, hi := 0, len(w)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w[mid].hi <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(w) && w[lo].lo < end
}

// Regions lists allocations in order.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// check panics unless [addr, addr+n) lies inside the memory. Phrased
// subtractively: addr+uint64(n) would wrap for near-MaxUint64 addresses and
// wrongly pass the bounds check.
func (m *Memory) check(addr uint64, n int, op string) {
	if n < 0 || addr > m.size || uint64(n) > m.size-addr {
		panic(fmt.Sprintf("memsim: %s out of range addr=%#x len=%d size=%d", op, addr, n, m.size))
	}
}

// ensure grows the backing store to cover [0, end). The caller must have
// bounds-checked end (end <= m.size): ensure doubles geometrically from 4
// KiB and clamps the growth to the memory size, which can only stay >= end
// — never clamp below a legal request — because end itself is bounded by
// the size. The explicit guard converts any future violation of that
// contract into a panic instead of a silent short buffer.
func (m *Memory) ensure(end uint64) {
	if end <= uint64(len(m.buf)) {
		return
	}
	grown := uint64(4096)
	for grown < end {
		grown *= 2
	}
	if grown > m.size {
		grown = m.size
	}
	if grown < end {
		panic(fmt.Sprintf("memsim: ensure(%d) beyond memory size %d (missing bounds check?)", end, m.size))
	}
	nb := make([]byte, grown)
	copy(nb, m.buf)
	m.buf = nb
}

// readAt copies the bytes at addr into dst, treating addresses past the
// backing store as zeros.
func (m *Memory) readAt(addr uint64, dst []byte) {
	var n int
	if addr < uint64(len(m.buf)) {
		n = copy(dst, m.buf[addr:])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Write commits data at addr immediately (at the caller's current virtual
// time).
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, len(data), "write")
	m.ensure(addr + uint64(len(data)))
	copy(m.buf[addr:], data)
	m.writes++
	if len(data) > 0 && m.overlapsWatched(addr, addr+uint64(len(data))) {
		m.watchedWrites++
	}
}

// Read copies n bytes at addr into a fresh slice.
func (m *Memory) Read(addr uint64, n int) []byte {
	m.check(addr, n, "read")
	out := make([]byte, n)
	m.readAt(addr, out)
	return out
}

// ReadInto copies len(dst) bytes at addr into dst, avoiding allocation on hot
// polling paths.
func (m *Memory) ReadInto(addr uint64, dst []byte) {
	m.check(addr, len(dst), "read")
	m.readAt(addr, dst)
}

// ByteAt reads the one byte at addr, with ReadInto's bounds check. It is the
// probe for a polled ownership byte: an empty poll copies one byte instead
// of a whole entry.
func (m *Memory) ByteAt(addr uint64) byte {
	m.check(addr, 1, "read")
	if addr < uint64(len(m.buf)) {
		return m.buf[addr]
	}
	return 0
}
