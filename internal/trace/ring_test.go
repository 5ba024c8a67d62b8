package trace

import (
	"slices"
	"testing"

	"breakband/internal/units"
)

// flatRing is the reference ring: one preallocated slice, slot n%cap. The
// chunked Tracer must agree with it event for event.
type flatRing struct {
	buf []Event
	n   uint64
}

func (r *flatRing) emit(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

func (r *flatRing) len() int { return int(min(r.n, uint64(len(r.buf)))) }

func (r *flatRing) events() []Event {
	var out []Event
	c := uint64(len(r.buf))
	for i := r.n - uint64(r.len()); i < r.n; i++ {
		out = append(out, r.buf[i%c])
	}
	return out
}

// checkRing compares every observable of tr with the reference ring.
func checkRing(t *testing.T, step string, tr *Tracer, ref *flatRing) {
	t.Helper()
	wantLen := ref.len()
	if tr.Len() != wantLen || tr.Emitted() != ref.n || tr.Overwritten() != ref.n-uint64(wantLen) {
		t.Fatalf("%s: len=%d emitted=%d overwritten=%d, want %d %d %d", step,
			tr.Len(), tr.Emitted(), tr.Overwritten(), wantLen, ref.n, ref.n-uint64(wantLen))
	}
	if got, want := tr.Events(), ref.events(); !slices.Equal(got, want) {
		t.Fatalf("%s: Events differ from the flat ring (%d vs %d events)", step, len(got), len(want))
	}
}

// TestChunkedRingMatchesFlat drives rings whose capacity sits on and around
// the chunk boundaries through more than two wraps and a Reset after a
// wrap, checking Len/Emitted/Overwritten/Events against the flat reference
// ring at every chunk boundary and at the end.
func TestChunkedRingMatchesFlat(t *testing.T) {
	for _, capacity := range []int{1, 2, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen - 1} {
		tr := New(capacity)
		ref := &flatRing{buf: make([]Event, capacity)}
		emit := func(i int) {
			e := Event{At: units.Time(i), Arg: uint64(i) * 7, TID: uint32(i), Port: int32(i % 5), Node: int16(i % 3), Kind: Kind(i % int(numKinds))}
			tr.Emit(e)
			ref.emit(e)
		}
		total := 2*capacity + capacity/2 + 3
		for i := 0; i < total; i++ {
			emit(i)
			if i%chunkLen == 0 || i == capacity-1 || i == capacity {
				checkRing(t, "during the first wraps", tr, ref)
			}
		}
		checkRing(t, "after the wraps", tr, ref)
		if tr.Overwritten() == 0 {
			t.Fatalf("capacity %d: the ring never wrapped", capacity)
		}

		tr.Reset()
		ref.n = 0
		checkRing(t, "right after Reset", tr, ref)
		for i := 0; i < capacity/2+1; i++ {
			emit(total + i)
			if i == 0 || i == capacity/2 {
				checkRing(t, "partly refilled after Reset", tr, ref)
			}
		}
		for i := capacity/2 + 1; i < capacity+1; i++ {
			emit(total + i)
		}
		checkRing(t, "refilled past capacity after Reset", tr, ref)
	}
}

// allocatedChunks counts the ring chunks that exist.
func allocatedChunks(tr *Tracer) int {
	n := 0
	for _, c := range tr.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestRingAllocatesOnlyWhatIsEmitted pins the on-demand ring: a 1 Mi-event
// tracer that records 10 events holds one chunk, a ring smaller than a
// chunk holds only its capacity, and a full ring holds every chunk.
func TestRingAllocatesOnlyWhatIsEmitted(t *testing.T) {
	tr := New(1 << 20)
	if allocatedChunks(tr) != 0 {
		t.Fatalf("a fresh tracer holds %d chunks, want 0", allocatedChunks(tr))
	}
	for i := 0; i < 10; i++ {
		tr.Emit(Event{TID: uint32(i)})
	}
	if got := allocatedChunks(tr); got != 1 {
		t.Errorf("1 Mi ring after 10 events holds %d chunks, want 1", got)
	}
	if len(tr.chunks[0]) != chunkLen {
		t.Errorf("first chunk holds %d events, want %d", len(tr.chunks[0]), chunkLen)
	}

	small := New(3)
	small.Emit(Event{})
	if len(small.chunks) != 1 || len(small.chunks[0]) != 3 {
		t.Errorf("capacity-3 ring chunk = %d events, want 3", len(small.chunks[0]))
	}

	odd := New(2*chunkLen + 1)
	for i := 0; i < 2*chunkLen+1; i++ {
		odd.Emit(Event{})
	}
	if got := allocatedChunks(odd); got != 3 || len(odd.chunks[2]) != 1 {
		t.Errorf("full ring of 2 chunks + 1 holds %d chunks, last of %d events; want 3 and 1", got, len(odd.chunks[2]))
	}
}
