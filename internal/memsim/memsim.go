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
// The backing store is paged: memory is split into fixed pageSize pages,
// and a page is allocated, zeroed, the first time a Write lands on it.
// Untouched pages, and addresses past the page table, read as zeros,
// exactly like untouched DRAM. The page table grows with the highest
// address written, not with the modelled size, and host memory is paid
// only for the pages a run writes: a receive pool or staging buffer that
// sits below a written ring costs nothing until it is itself written.
// That is what lets the measurement campaign build hundreds of fresh
// systems without cycling gigabytes through the allocator.
type Memory struct {
	size    uint64
	pages   []*page // pages[i] backs [i*pageSize, (i+1)*pageSize); nil reads as zeros
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

// pageSize is the backing granularity, chosen by measurement. 64 KiB keeps
// the common accesses (CQEs, WQEs, doorbell records and 4 KiB payloads)
// inside one page, so a page crossing is rare, while a node of a put_bw or
// incast run still holds only 1 to 10 pages. 4 KiB pages split 4 KiB
// payload writes and slowed the closed-loop benchmark.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one unit of backing store.
type page [pageSize]byte

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

// pageFor returns the page backing addr, allocating it (zeroed) on first use
// and growing the page table to reach it. The caller must have
// bounds-checked addr.
func (m *Memory) pageFor(addr uint64) *page {
	i := addr >> pageShift
	if i >= uint64(len(m.pages)) {
		m.pages = append(m.pages, make([]*page, i+1-uint64(len(m.pages)))...)
	}
	p := m.pages[i]
	if p == nil {
		p = new(page)
		m.pages[i] = p
	}
	return p
}

// readAt copies the bytes at addr into dst, page by page; untouched pages
// read as zeros.
func (m *Memory) readAt(addr uint64, dst []byte) {
	for len(dst) > 0 {
		i, off := addr>>pageShift, addr&pageMask
		var n int
		if i < uint64(len(m.pages)) && m.pages[i] != nil {
			n = copy(dst, m.pages[i][off:])
		} else {
			n = min(len(dst), int(pageSize-off))
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write commits data at addr immediately (at the caller's current virtual
// time).
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, len(data), "write")
	m.writes++
	if len(data) > 0 && m.overlapsWatched(addr, addr+uint64(len(data))) {
		m.watchedWrites++
	}
	for len(data) > 0 {
		n := copy(m.pageFor(addr)[addr&pageMask:], data)
		data = data[n:]
		addr += uint64(n)
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
	if i := addr >> pageShift; i < uint64(len(m.pages)) && m.pages[i] != nil {
		return m.pages[i][addr&pageMask]
	}
	return 0
}
