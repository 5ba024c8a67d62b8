// Command perfbench is the repository benchmark: it measures what the
// simulator costs its users in host time and memory on two workloads,
// checks that every simulated result is correct and repeatable, and, in a
// separate traced run, reports per-layer work counters, per-layer
// microbenchmarks and a per-package CPU breakdown.
//
// One invocation runs one workload in its own process, so peak RSS
// belongs to that workload alone:
//
//	bash perfbench/run.sh --workload closed-loop --seed 1 --seconds 45 --trace 0
//
// --workload all runs every workload, each in a child process. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a human-readable
// report. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// Keep the benchmark on one OS thread, so the thread's CPU time is the
	// set-up work alone (see rep.phase).
	runtime.LockOSThread()
	testing.Init() // testing.Benchmark reads -test.benchtime
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+
		", one of their parts ("+strings.Join(partNames(), ", ")+"), or all")
	seed := flag.Uint64("seed", 1, "workload seed (drives openloop-mixed's arrival streams)")
	seconds := flag.Float64("seconds", 45, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for spans and CPU profiles")
	chaosSeeds := flag.String("chaos-seeds", "1-4", "chaos soak seed ladder, as lo-hi")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %v", *seconds)
	}
	ladder, err := parseLadder(*chaosSeeds)
	if err != nil {
		fatalf("--chaos-seeds: %v", err)
	}
	if *workloadName == "all" {
		os.Exit(runAll())
	}
	w, ok := workloads[*workloadName]
	if !ok {
		fatalf("unknown --workload %q (want one of %s, or all)", *workloadName, strings.Join(append(workloadNames(), partNames()...), ", "))
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatalf("%v", err)
	}

	p := params{seed: *seed, ladder: ladder}
	var res *result
	if *traced == 1 {
		res = runTraced(w, p, *seconds, *outdir)
	} else {
		res = runPlain(w, p, *seconds)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in its own child process (so each reports its
// own peak RSS) with the flags given to this one, forwarding their reports.
// It exits non-zero if any child failed or reported an incorrect result.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var shared []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			shared = append(shared, "--"+f.Name+"="+f.Value.String())
		}
	})
	bad := 0
	for _, name := range workloadNames() {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, append([]string{"--workload=" + name}, shared...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || !r.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed (%v)\n", name, err)
			bad++
		}
	}
	fmt.Printf("== all: %d of %d workload(s) failed\n", bad, len(workloadNames()))
	if bad > 0 {
		return 1
	}
	return 0
}

// params are the inputs a workload derives its jobs from.
type params struct {
	seed   uint64
	ladder []uint64
}

func parseLadder(s string) ([]uint64, error) {
	var lo, hi uint64
	if _, err := fmt.Sscanf(s, "%d-%d", &lo, &hi); err != nil || lo == 0 || hi < lo || hi-lo > 64 {
		return nil, fmt.Errorf("want lo-hi with 1 <= lo <= hi <= lo+64, got %q", s)
	}
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out, nil
}

// runPlain is the untraced run: one warm-up repetition, then repetitions
// until the measuring time is spent. Every repetition is checked. The gated
// times are in reference seconds (see ref.go). The run time is pooled over
// the whole run: total CPU time over the mean cost of a reference chunk,
// per repetition. Pooling uses every second measured, where a median of
// the few long repetitions a slow workload fits in a run would throw most
// of them away. Set-up takes milliseconds and its outliers are large, so
// setup_s is the median over repetitions, each scaled by its own chunks.
func runPlain(w *workloadDef, p params, seconds float64) *result {
	b := newBatch(w, p)
	b.rep(nil) // warm-up: caches, heap growth and lazy initialisation
	start := time.Now()
	var measured []*rep
	for len(measured) < 2 || time.Since(start).Seconds() < seconds {
		measured = append(measured, b.rep(nil))
	}
	rss := peakRSSMB()

	var run, ref time.Duration
	var chunks int
	var msgs float64
	for _, r := range measured {
		run += r.run
		ref += r.ref
		chunks += r.refChunks
		msgs += r.msgs
	}
	chunk := ref / time.Duration(chunks)
	refSetup := collect(measured, func(r *rep) float64 { return refSeconds(r.setup, r.ref/time.Duration(r.refChunks)) })
	refCPU := refSeconds(run/time.Duration(len(measured)), chunk)
	refRate := msgs / refSeconds(run, chunk)

	b.header("untraced", len(measured))
	printDist("setup_s", "s", refSetup)
	fmt.Printf("  %-22s %.6g s (pooled)\n", "ref_cpu_s", refCPU)
	fmt.Printf("  %-22s %.6g msg/s (pooled)\n", "msgs_per_ref_s", refRate)
	fmt.Printf("  %-22s %.1f MB\n", "peak_rss_mb", rss)
	fmt.Println("  per repetition, for comparison:")
	printDist("ref_cpu_s", "s", collect(measured, func(r *rep) float64 { return refSeconds(r.run, r.ref/time.Duration(r.refChunks)) }))
	printDist("ref_chunk_s", "s", collect(measured, func(r *rep) float64 { return r.ref.Seconds() / float64(r.refChunks) }))
	printDist("cpu_s", "s", collect(measured, func(r *rep) float64 { return r.run.Seconds() }))
	printDist("wall_s", "s", collect(measured, func(r *rep) float64 { return r.runWall.Seconds() }))
	printDist("msgs_per_s", "msg/s", collect(measured, func(r *rep) float64 { return r.msgs / r.runWall.Seconds() }))
	b.footer()

	return b.result(map[string]metric{
		"setup_s":        {median(refSetup), "s"},
		"ref_cpu_s":      {refCPU, "s"},
		"msgs_per_ref_s": {refRate, "msg/s"},
		"peak_rss_mb":    {rss, "MB"},
	})
}

// batch runs repetitions of one workload and checks each against the
// first: every exact counter must repeat bit for bit.
type batch struct {
	w         *workloadDef
	p         params
	first     *rep
	attempted int
	failures  []string
	reps      int
	// repeatable stays true while every repetition's exact counters equal
	// the first's.
	repeatable bool
}

func newBatch(w *workloadDef, p params) *batch { return &batch{w: w, p: p, repeatable: true} }

// rep runs one repetition (traced when tr is non-nil) and checks it.
func (b *batch) rep(tr *tracer) *rep {
	runtime.GC() // start every repetition from the same heap, as testing.B does
	r := newRep(b.p, tr)
	sp := tr.begin(fmt.Sprintf("rep%d", b.reps))
	b.w.run(r)
	tr.end(sp)
	b.reps++
	b.attempted += r.jobs
	for _, f := range r.failures {
		b.failures = append(b.failures, fmt.Sprintf("rep %d: %s", b.reps-1, f))
	}
	if b.first == nil {
		b.first = r
		return r
	}
	b.attempted++ // the determinism check counts as a job of its own
	if diff := r.exact.diff(b.first.exact); diff != "" {
		b.repeatable = false
		b.failures = append(b.failures, fmt.Sprintf("rep %d: determinism: %s", b.reps-1, diff))
	}
	return r
}

func (b *batch) header(mode string, n int) {
	fmt.Printf("perfbench %s seed=%d %s: %d measured repetition(s) after 1 warm-up, %d job(s) each\n",
		b.w.name, b.p.seed, mode, n, b.first.jobs)
}

// footer prints the correctness summary and the exact-counter fingerprint,
// which two processes run at the same seed must also share.
func (b *batch) footer() {
	failed := len(b.failures)
	fmt.Printf("  %-22s %.4f (%d of %d job(s) failed)\n", "fail_frac", float64(failed)/float64(b.attempted), failed, b.attempted)
	if b.first.modelErrPct > 0 {
		fmt.Printf("  %-22s %.3f %% (largest |model - simulated| / simulated of the four §4/§6 validations)\n",
			"model_err_pct", b.first.modelErrPct)
	}
	fmt.Printf("  %-22s %016x over %d exact counter(s), identical across %d repetition(s): %v\n",
		"counters_fnv64", b.first.exact.fingerprint(), len(b.first.exact), b.reps, b.repeatable)
	for _, f := range b.failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

func (b *batch) result(m map[string]metric) *result {
	return &result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   m,
	}
}

// exact holds a repetition's exact results: work counters and simulated
// outcomes, all pure functions of the workload and seed.
type exact map[string]float64

func (e exact) add(k string, v float64) { e[k] += v }

func (e exact) max(k string, v float64) {
	if old, ok := e[k]; !ok || v > old {
		e[k] = v
	}
}

func (e exact) keys() []string {
	ks := make([]string, 0, len(e))
	for k := range e {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// diff names the first counter that differs from want, or "".
func (e exact) diff(want exact) string {
	for _, k := range want.keys() {
		if got, ok := e[k]; !ok || math.Float64bits(got) != math.Float64bits(want[k]) {
			return fmt.Sprintf("%s = %v, first repetition had %v", k, got, want[k])
		}
	}
	for _, k := range e.keys() {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("%s appeared after the first repetition", k)
		}
	}
	return ""
}

func (e exact) fingerprint() uint64 {
	h := fnv.New64a()
	for _, k := range e.keys() {
		fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(e[k]))
	}
	return h.Sum64()
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// quantile interpolates linearly between order statistics of a non-empty
// sample.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func printDist(name, unit string, xs []float64) {
	fmt.Printf("  %-22s median %.6g %s  (q1 %.6g, q3 %.6g, min %.6g, max %.6g; n=%d)\n",
		name, median(xs), unit, quantile(xs, 0.25), quantile(xs, 0.75), quantile(xs, 0), quantile(xs, 1), len(xs))
}

// CPU clocks for cpuTime (Linux clock IDs, which package syscall does not
// name).
const (
	processClock = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread, GC workers included
	threadClock  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread only
)

// cpuTime reads a CPU clock, in nanoseconds. Unlike wall time, CPU time
// leaves out the time the hypervisor runs other guests on this VM's vCPUs,
// which on a shared host swings wall time by tens of percent from one
// minute to the next.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		fatalf("clock_gettime: %v", errno)
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reports this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// allocStats samples the Go runtime's cumulative allocation counters.
func allocStats() (bytes uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}
