// Package mpi implements the top of the high-level protocol stack: an
// MPICH-CH4-style MPI library over ucp, with nonblocking point-to-point
// operations, a blocking progress engine, and the registered completion
// callbacks whose costs the paper's §5 breakdown attributes.
//
// Call structure mirrors MPICH over UCX: MPI_Isend decides how to execute
// the operation and calls ucp_tag_send_nb; MPI_Wait loops the progress
// engine over ucp_worker_progress; completions bubble up through the UCT →
// UCP → MPICH callback chain before the progress call returns (paper §5).
//
// Like the layers below, the blocking operations are resumable sim.Frame
// state machines: continuation tasks use the Start*/Last* forms, blocking
// tasks (Proc.Task) the synchronous wrappers. One task drives a Rank at a
// time.
package mpi

import (
	"fmt"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/profile"
	"breakband/internal/sim"
	"breakband/internal/ucp"
	"breakband/internal/uct"
)

// Request is an MPI request handle.
type Request struct {
	rank   *Rank
	ucpReq *ucp.Request
	done   bool
	isRecv bool
	src    int // receive source rank (error attribution)
	err    error
}

// Done reports completion (for test assertions; applications use Wait).
func (r *Request) Done() bool { return r.done }

// Err reports the failure that terminated the request — the MPI analogue of
// a non-MPI_SUCCESS status in MPI_Wait. Nil on success or while in flight.
// Requests fail when their endpoint's QP enters the error state: the send
// was flushed undelivered, or the posted receive was cancelled because the
// peer died.
func (r *Request) Err() error {
	if r.err != nil {
		return r.err
	}
	if r.ucpReq != nil {
		return r.ucpReq.Err()
	}
	return nil
}

// Data returns the payload of a completed receive.
func (r *Request) Data() []byte {
	if !r.done || !r.isRecv {
		return nil
	}
	return r.ucpReq.Data()
}

// Stats counts MPI-level events.
type Stats struct {
	Isends, Irecvs uint64
	Waits          uint64
	WaitLoops      uint64
	SendCallbacks  uint64
	RecvCallbacks  uint64
	// RecvWaits and RecvWaitLoops reconstruct per-wait progress totals
	// (Sum = mean x loops/waits) in the §5 methodology.
	RecvWaits     uint64
	RecvWaitLoops uint64
}

// Rank is one MPI process (one simulated core).
type Rank struct {
	ID     int
	Node   *node.Node
	Cfg    *config.Config
	Worker *ucp.Worker
	eps    map[int]*ucp.Ep
	// epList holds the connections in creation order so credit posting
	// iterates deterministically (map order would vary run to run).
	epList []*ucp.Ep

	Stats Stats

	// Instrumentation knobs used by the measurement methodology: when
	// set, the named regions are profiled with the node's profiler. The
	// Wait-related scopes apply to receive waits only (the paper's §5
	// receive-side analysis); ProfUcpProg and ProfUctInWait are gated to
	// the interior of a receive wait so that per-wait totals can be
	// reconstructed from means and loop counts.
	ProfIsend     bool      // "mpi_isend" scope
	ProfUcpSend   bool      // "ucp_tag_send_nb" scope
	ProfWait      bool      // "mpi_wait_recv" scope
	ProfUcpProg   bool      // "ucp_worker_progress" scope (inside recv waits)
	ProfMpichCB   bool      // "mpich_recv_cb" scope
	ProfAfterProg bool      // "mpich_after_progress" scope
	ProfUctInWait uct.Stage // LLP stage profiled inside recv waits

	inRecvWait bool

	// completions counts request terminations; with the LLP's error
	// completion count it forms the rank's completion epoch (see epoch).
	completions uint64

	prepF    prepFrame
	isendF   isendFrame
	waitF    waitFrame
	waitallF waitallFrame
	sendF    sendFrame
	recvF    recvFrame
}

// Comm is a communicator over a set of ranks.
type Comm struct {
	Ranks []*Rank
}

// tagFor packs (src, tag) so matching is pairwise like MPI's
// (communicator, source, tag) triple.
func tagFor(src int, tag int) uint64 {
	return uint64(src)<<32 | uint64(uint32(tag))
}

// NewComm builds one rank per node (rank i on nodes[i]) and fully connects
// them with the given post mode. It mirrors MPI_Init plus connection setup.
func NewComm(nodes []*node.Node, cfg *config.Config, mode uct.PostMode) *Comm {
	c := &Comm{}
	for i, n := range nodes {
		u := uct.NewWorker(n, cfg)
		w := ucp.NewWorker(u, cfg)
		r := &Rank{ID: i, Node: n, Cfg: cfg, Worker: w, eps: make(map[int]*ucp.Ep)}
		r.prepF.r = r
		r.isendF.r = r
		r.waitF.r = r
		r.waitallF.r = r
		r.sendF.r = r
		r.recvF.r = r
		c.Ranks = append(c.Ranks, r)
	}
	// Fully connect: one ep (and QP) per peer per rank.
	for i, a := range c.Ranks {
		for j, b := range c.Ranks {
			if i >= j {
				continue
			}
			ea := a.Worker.NewEp(mode)
			eb := b.Worker.NewEp(mode)
			uct.Connect(ea.UctEp, eb.UctEp)
			a.eps[j] = ea
			b.eps[i] = eb
			a.epList = append(a.epList, ea)
			b.epList = append(b.epList, eb)
		}
	}
	return c
}

// StartPreparePostedRecvs begins posting n receive credits on every
// connection, in connection-creation order; run it on each rank before
// traffic flows.
func (r *Rank) StartPreparePostedRecvs(t *sim.Task, n int) {
	r.prepF.pc = 0
	r.prepF.i = 0
	r.prepF.n = n
	t.Call(&r.prepF)
}

// PreparePostedRecvs is the synchronous form of StartPreparePostedRecvs for
// blocking tasks.
func (r *Rank) PreparePostedRecvs(t *sim.Task, n int) {
	t.BlockingOnly("mpi.Rank.PreparePostedRecvs")
	r.StartPreparePostedRecvs(t, n)
}

type prepFrame struct {
	r    *Rank
	pc   int
	i, n int
}

func (f *prepFrame) Step(t *sim.Task) {
	r := f.r
	if f.i >= len(r.epList) {
		t.Return()
		return
	}
	ep := r.epList[f.i]
	f.i++
	ep.UctEp.StartPostRecvs(t, f.n)
}

// StartIsend begins a nonblocking standard send of data to rank dst; the
// request is reported by LastIsend once the frame returns.
func (r *Rank) StartIsend(t *sim.Task, dst int, tag int, data []byte) {
	f := &r.isendF
	f.pc = 0
	f.dst = dst
	f.tag = tag
	f.data = data
	t.Call(f)
}

// LastIsend reports the request created by the most recently completed
// isend frame.
func (r *Rank) LastIsend() *Request { return r.isendF.res }

// Isend is the synchronous form of StartIsend for blocking tasks.
func (r *Rank) Isend(t *sim.Task, dst int, tag int, data []byte) *Request {
	t.BlockingOnly("mpi.Rank.Isend")
	r.StartIsend(t, dst, tag, data)
	return r.isendF.res
}

type isendFrame struct {
	r        *Rank
	pc       int
	dst, tag int
	data     []byte

	ep       *ucp.Ep
	req      *Request
	isendTok profTok
	ucpTok   profTok
	res      *Request
}

func (f *isendFrame) Step(t *sim.Task) {
	r := f.r
	switch f.pc {
	case 0:
		ep, ok := r.eps[f.dst]
		if !ok {
			panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.ID, f.dst))
		}
		f.ep = ep
		r.Stats.Isends++
		req := &Request{rank: r}
		f.req = req

		f.isendTok, f.ucpTok = profTok{}, profTok{}
		if r.ProfIsend {
			f.isendTok = r.profBegin(t)
		}
		// MPICH-side work: datatype/contiguity checks, choosing the path.
		t.Advance(r.Cfg.SW.MpiIsend.Sample(r.Node.Rand))
		if r.ProfUcpSend {
			f.ucpTok = r.profBegin(t)
		}
		f.pc = 1
		ep.StartTagSend(t, tagFor(r.ID, f.tag), f.data, func(ct *sim.Task) {
			// MPICH send-completion callback.
			ct.Advance(r.Cfg.SW.MpichSendCB.Sample(r.Node.Rand))
			r.Stats.SendCallbacks++
			r.finish(req)
		})
	case 1:
		ucpReq, err := f.ep.LastSend()
		if err != nil {
			// Initiation failed (the endpoint's QP is in the error
			// state): the request terminates immediately with the error
			// instead of panicking — MPI_Wait reports it as a status.
			f.req.err = err
			r.finish(f.req)
		}
		f.req.ucpReq = ucpReq
		r.profEndAs(t, f.ucpTok, r.ProfUcpSend, "ucp_tag_send_nb")
		r.profEndAs(t, f.isendTok, r.ProfIsend, "mpi_isend")
		f.res = f.req
		f.req = nil
		f.data = nil
		t.Return()
	}
}

// Irecv starts a nonblocking receive matching (src, tag). It is pause-free,
// so it works identically on continuation and blocking tasks and needs no
// Start form.
func (r *Rank) Irecv(t *sim.Task, src int, tag int) *Request {
	r.Stats.Irecvs++
	req := &Request{rank: r, isRecv: true, src: src}
	t.Advance(r.Cfg.SW.MpiIrecv.Sample(r.Node.Rand))
	req.ucpReq = r.Worker.TagRecvNB(t, tagFor(src, tag), func(ct *sim.Task) {
		// MPICH receive callback (paper Table 1: 47.99 ns).
		var tok profTok
		if r.ProfMpichCB {
			tok = r.profBegin(ct)
		}
		ct.Advance(r.Cfg.SW.MpichRecvCB.Sample(r.Node.Rand))
		r.Stats.RecvCallbacks++
		r.finish(req)
		r.profEndAs(ct, tok, r.ProfMpichCB, "mpich_recv_cb")
	})
	// An unexpected message may have completed it synchronously.
	if req.ucpReq.Completed() {
		r.finish(req)
		return req
	}
	// Late post against a dead peer: short-circuit with the endpoint error
	// instead of waiting for a match that will never arrive (mirrors the
	// CQEFlushErr contract for posts against an errored QP). A message
	// already delivered before the failure still matches above.
	if ep, ok := r.eps[src]; ok && ep.Err() != nil {
		r.Worker.CancelRecv(t, req.ucpReq, ep.Err())
		r.finish(req)
	}
	return req
}

// finish terminates a request, by success or failure. Every termination
// goes through it, so the completion epoch moves with each one.
func (r *Rank) finish(req *Request) {
	req.done = true
	r.completions++
}

// epoch is the rank's completion epoch. It moves whenever a request
// terminates and whenever the LLP polls an error completion, the only way
// an endpoint's Err is set. Between two equal readings no request changed
// state and no endpoint changed health, so a failure scan over a fixed set
// of requests would find exactly what the last one found. Both counters
// only grow: nothing resets a worker's Stats.
func (r *Rank) epoch() uint64 {
	return r.completions + r.Worker.Uct.Stats.ErrorCQEs
}

// checkFailed tests a pending request against its endpoint's health and
// terminates it if the transport has failed: a posted receive whose source
// endpoint errored is cancelled (the MPICH receive callback still runs, so
// the request machinery observes completion). It reports whether the
// request terminated. Healthy endpoints cost one map lookup and schedule
// nothing.
func (r *Rank) checkFailed(t *sim.Task, req *Request) bool {
	if req.done {
		return true
	}
	if !req.isRecv {
		return false
	}
	ep, ok := r.eps[req.src]
	if !ok || ep.Err() == nil {
		return false
	}
	r.Worker.CancelRecv(t, req.ucpReq, ep.Err())
	r.finish(req)
	return true
}

// PendingSet is the failure-aware scan a wait loop runs on every spin over
// a fixed set of requests: it cancels each pending receive whose source
// endpoint has errored and counts the requests still pending. The scan
// reruns only when the rank's completion epoch has moved since the last
// one; otherwise it would cancel nothing and count the same, so an idle
// spin costs O(1) host work however many requests are pending, and the
// simulated work is unchanged. Waitall uses it, and so can callers that
// drive the progress engine themselves (chaos harnesses, failure
// detectors).
type PendingSet struct {
	r       *Rank
	reqs    []*Request
	scanned bool
	epoch   uint64
	pending int
	err     error
}

// Reset points the set at reqs on rank r and forgets any earlier scan.
func (s *PendingSet) Reset(r *Rank, reqs []*Request) {
	*s = PendingSet{r: r, reqs: reqs}
}

// Pending terminates the pending receives whose source endpoint has
// errored and reports how many requests are still pending.
func (s *PendingSet) Pending(t *sim.Task) int {
	r := s.r
	if s.scanned && s.epoch == r.epoch() {
		return s.pending
	}
	n := 0
	for _, q := range s.reqs {
		if !r.checkFailed(t, q) {
			n++
		} else if err := q.Err(); err != nil && s.err == nil {
			s.err = err
		}
	}
	// Read the epoch after the scan: its own cancellations moved it.
	s.scanned, s.epoch, s.pending = true, r.epoch(), n
	return n
}

// Err reports the first failure the scans found, in request order, or nil.
func (s *PendingSet) Err() error { return s.err }

// CancelRecv abandons a pending receive with the given error, as when an
// application-level deadline expires while the peer is unreachable. The
// request terminates (Err reports err) and its buffer slot is released; a
// receive that already completed is left alone and false is returned.
func (r *Rank) CancelRecv(t *sim.Task, req *Request, err error) bool {
	if req.done || !req.isRecv {
		return false
	}
	if !r.Worker.CancelRecv(t, req.ucpReq, err) {
		return false
	}
	r.finish(req)
	return true
}

// StartWait begins blocking until req completes, driving the progress
// engine (MPI_Wait).
func (r *Rank) StartWait(t *sim.Task, req *Request) {
	r.waitF.pc = 0
	r.waitF.req = req
	t.Call(&r.waitF)
}

// Wait is the synchronous form of StartWait for blocking tasks.
func (r *Rank) Wait(t *sim.Task, req *Request) {
	t.BlockingOnly("mpi.Rank.Wait")
	r.StartWait(t, req)
}

type waitFrame struct {
	r   *Rank
	pc  int
	req *Request

	measured bool
	waitTok  profTok
	progTok  profTok
	progProf bool
}

func (f *waitFrame) Step(t *sim.Task) {
	r := f.r
	for {
		switch f.pc {
		case 0:
			r.Stats.Waits++
			f.measured = f.req.isRecv
			if f.measured {
				r.Stats.RecvWaits++
				r.inRecvWait = true
				if r.ProfUctInWait != uct.StNone {
					r.Worker.Uct.ProfStage = r.ProfUctInWait
				}
			}
			f.waitTok = profTok{}
			if r.ProfWait && f.measured {
				f.waitTok = r.profBegin(t)
			}
			// Entry/exit bookkeeping (request inspection, state machine).
			t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
			f.pc = 1
		case 1:
			if r.checkFailed(t, f.req) {
				f.pc = 3
				continue
			}
			r.Stats.WaitLoops++
			if f.measured {
				r.Stats.RecvWaitLoops++
			}
			t.Advance(r.Cfg.SW.MpichWaitLoop.Sample(r.Node.Rand))
			f.beginProgress(t)
			f.pc = 2
			r.Worker.StartProgress(t)
			return
		case 2:
			r.profEndAs(t, f.progTok, f.progProf, "ucp_worker_progress")
			f.pc = 1
		case 3:
			// MPICH work after the successful ucp_worker_progress (paper
			// §6: 36.89 ns).
			afterTok := profTok{}
			if r.ProfAfterProg && f.measured {
				afterTok = r.profBegin(t)
			}
			t.Advance(r.Cfg.SW.MpichAfterPrg.Sample(r.Node.Rand))
			r.profEndAs(t, afterTok, r.ProfAfterProg && f.measured, "mpich_after_progress")
			r.profEndAs(t, f.waitTok, r.ProfWait && f.measured, "mpi_wait_recv")
			if f.measured {
				r.inRecvWait = false
				if r.ProfUctInWait != uct.StNone {
					r.Worker.Uct.ProfStage = uct.StNone
				}
			}
			f.req = nil
			t.Return()
			return
		}
	}
}

// beginProgress opens the optionally-profiled ucp_worker_progress scope
// (inside receive waits only, so per-wait totals reconstruct cleanly).
func (f *waitFrame) beginProgress(t *sim.Task) {
	r := f.r
	f.progProf = r.ProfUcpProg && r.inRecvWait
	f.progTok = profTok{}
	if f.progProf {
		f.progTok = r.profBegin(t)
	}
}

// StartWaitall begins blocking until all requests complete (MPI_Waitall).
// MPICH executes its progress engine until every listed operation completes.
func (r *Rank) StartWaitall(t *sim.Task, reqs []*Request) {
	r.waitallF.pc = 0
	r.waitallF.set.Reset(r, reqs)
	t.Call(&r.waitallF)
}

// Waitall is the synchronous form of StartWaitall for blocking tasks.
func (r *Rank) Waitall(t *sim.Task, reqs []*Request) {
	t.BlockingOnly("mpi.Rank.Waitall")
	r.StartWaitall(t, reqs)
}

type waitallFrame struct {
	r   *Rank
	pc  int
	set PendingSet

	progTok  profTok
	progProf bool
}

func (f *waitallFrame) Step(t *sim.Task) {
	r := f.r
	for {
		switch f.pc {
		case 0:
			t.Advance(r.Cfg.SW.MpichWaitEnt.Sample(r.Node.Rand))
			f.pc = 1
		case 1:
			if f.set.Pending(t) == 0 {
				f.set = PendingSet{}
				t.Return()
				return
			}
			r.Stats.WaitLoops++
			// Per-operation bookkeeping share of the waitall loop.
			t.Advance(r.Cfg.SW.MpichWaitallOp.Sample(r.Node.Rand))
			f.progProf = r.ProfUcpProg && r.inRecvWait
			f.progTok = profTok{}
			if f.progProf {
				f.progTok = r.profBegin(t)
			}
			f.pc = 2
			r.Worker.StartProgress(t)
			return
		case 2:
			r.profEndAs(t, f.progTok, f.progProf, "ucp_worker_progress")
			f.pc = 1
		}
	}
}

// StartSend begins a blocking standard send (Isend + Wait), as used by the
// OSU latency benchmark.
func (r *Rank) StartSend(t *sim.Task, dst int, tag int, data []byte) {
	r.sendF.pc = 0
	r.sendF.dst = dst
	r.sendF.tag = tag
	r.sendF.data = data
	t.Call(&r.sendF)
}

// Send is the synchronous form of StartSend for blocking tasks.
func (r *Rank) Send(t *sim.Task, dst int, tag int, data []byte) {
	t.BlockingOnly("mpi.Rank.Send")
	r.Wait(t, r.Isend(t, dst, tag, data))
}

type sendFrame struct {
	r        *Rank
	pc       int
	dst, tag int
	data     []byte
}

func (f *sendFrame) Step(t *sim.Task) {
	r := f.r
	switch f.pc {
	case 0:
		f.pc = 1
		r.StartIsend(t, f.dst, f.tag, f.data)
	case 1:
		f.pc = 2
		r.StartWait(t, r.LastIsend())
	case 2:
		f.data = nil
		t.Return()
	}
}

// StartRecv begins a blocking receive (Irecv + Wait); the payload is
// reported by LastRecv once the frame returns.
func (r *Rank) StartRecv(t *sim.Task, src int, tag int) {
	r.recvF.pc = 0
	r.recvF.src = src
	r.recvF.tag = tag
	t.Call(&r.recvF)
}

// LastRecv reports the payload received by the most recently completed recv
// frame.
func (r *Rank) LastRecv() []byte { return r.recvF.data }

// Recv is the synchronous form of StartRecv for blocking tasks.
func (r *Rank) Recv(t *sim.Task, src int, tag int) []byte {
	t.BlockingOnly("mpi.Rank.Recv")
	req := r.Irecv(t, src, tag)
	r.Wait(t, req)
	return req.Data()
}

type recvFrame struct {
	r        *Rank
	pc       int
	src, tag int
	req      *Request
	data     []byte
}

func (f *recvFrame) Step(t *sim.Task) {
	r := f.r
	switch f.pc {
	case 0:
		f.req = r.Irecv(t, f.src, f.tag)
		f.pc = 1
		r.StartWait(t, f.req)
	case 1:
		f.data = f.req.Data()
		f.req = nil
		t.Return()
	}
}

// --- profiling helpers ---

type profTok struct {
	tok  profile.Token
	real bool
}

func (r *Rank) profBegin(t *sim.Task) profTok {
	return profTok{tok: r.Node.Prof.BeginAnon(t), real: true}
}

func (r *Rank) profEndAs(t *sim.Task, tk profTok, enabled bool, name string) {
	if tk.real && enabled {
		r.Node.Prof.EndAs(t, tk.tok, name)
	}
}
