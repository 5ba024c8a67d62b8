package main

import (
	"runtime"
	"time"
)

// The reference kernel is a fixed amount of simulator-shaped host work,
// written here and sharing no code with the repository, so no change to the
// simulator can move it. Every run phase sits between two chunks of it, and
// the gated times are expressed in reference seconds: CPU time scaled by
// refChunkNominal over the chunk's current cost.
//
// On a shared host this VM's vCPUs run at speeds that change by up to 2.5x
// from one minute to the next, and by ±20 % from one second to the next:
// their hyperthread siblings, caches and memory bandwidth belong to other
// guests, and CPU time does not leave that out (steal time is small). A
// slowdown hits the simulator and the kernel next to it alike, so their
// ratio stays put while each alone drifts.
//
// Its shape follows the simulator's hot loop: pop the earliest event off a
// binary min-heap, touch a record in a multi-megabyte table at a
// pseudo-random place, run a small closure, push a follow-up event, and
// allocate a short-lived object now and then for the garbage collector.

const (
	refEvents  = 200_000 // events per chunk
	refRecords = 1 << 17 // 128 Ki records of 64 bytes: 8 MiB, past the L2
	refPending = 4096    // events kept in the heap

	// refChunkNominal is the CPU time one chunk is taken to cost in a
	// reference second. A chunk took 40-65 ms on the 2-vCPU Xeon VM the
	// benchmark was built on, so a reference second is close to a CPU
	// second there.
	refChunkNominal = 50 * time.Millisecond
)

type refEvent struct {
	at  uint64
	rec uint32
	fn  func(*refRecord, uint64) uint64
}

type refRecord struct {
	state [7]uint64
	seen  uint64
}

type refHeap []refEvent

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// refSink keeps the kernel's allocations and result alive, so the compiler
// cannot drop them.
var refSink struct {
	garbage []*[8]uint64
	sum     uint64
}

// refKernel runs one chunk of the reference work. Every chunk does the
// same work: the random stream is fixed.
func refKernel() {
	table := make([]refRecord, refRecords)
	h := make(refHeap, 0, refPending+1)
	fns := []func(*refRecord, uint64) uint64{
		func(r *refRecord, x uint64) uint64 { r.state[x&7%7] += x; return r.state[0] ^ x },
		func(r *refRecord, x uint64) uint64 { r.seen++; return r.seen*0x9e3779b97f4a7c15 + x },
		func(r *refRecord, x uint64) uint64 {
			for i := range r.state {
				x ^= r.state[i]
				r.state[i] = x >> 3
			}
			return x
		},
	}
	x := uint64(0x243f6a8885a308d3)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < refPending; i++ {
		v := next()
		h.push(refEvent{at: v >> 40, rec: uint32(v) % refRecords, fn: fns[v%3]})
	}
	var sum uint64
	garbage := refSink.garbage[:0]
	for i := 0; i < refEvents; i++ {
		e := h.pop()
		sum += e.fn(&table[e.rec], e.at)
		v := next()
		h.push(refEvent{at: e.at + 1 + v>>52, rec: uint32(v>>8) % refRecords, fn: fns[v%3]})
		if i%16 == 0 {
			g := &[8]uint64{sum, v}
			if len(garbage) < 1024 {
				garbage = append(garbage, g)
			} else {
				garbage[v%1024] = g
			}
		}
	}
	refSink.garbage = garbage
	refSink.sum += sum
	runtime.KeepAlive(table)
}

// refCPU runs one chunk of the reference kernel from a collected heap and
// returns the process CPU time it took.
func refCPU() time.Duration {
	runtime.GC()
	c0 := cpuTime(processClock)
	refKernel()
	return cpuTime(processClock) - c0
}

// refSeconds converts CPU time spent while one reference chunk cost
// chunk (on average) into reference seconds.
func refSeconds(cpu, chunk time.Duration) float64 {
	return cpu.Seconds() * refChunkNominal.Seconds() / chunk.Seconds()
}
