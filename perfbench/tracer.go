package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer
// (jobs, their setup/run/check/readout phases, microbenchmarks) and a CPU
// profile of every run phase. A nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int
	profDir string
	profs   []string
	cur     *os.File
}

// span is one timed interval; Parent is the enclosing span's ID, -1 at the
// top.
type span struct {
	ID, Parent int
	Name       string
	Start, Dur time.Duration
}

func newTracer(profDir string) *tracer {
	return &tracer{t0: time.Now(), profDir: profDir}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].Dur = time.Since(t.t0) - t.spans[id].Start
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	f, err := os.Create(filepath.Join(t.profDir, fmt.Sprintf("run-%04d.pprof", len(t.profs))))
	if err != nil {
		fatalf("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatalf("%v", err)
	}
	t.cur = f
}

func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := t.cur.Close(); err != nil {
		fatalf("%v", err)
	}
	t.profs = append(t.profs, t.cur.Name())
	t.cur = nil
}

// writeSpans writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto), durations in microseconds.
func (t *tracer) writeSpans(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	data, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuLayers are the simulator packages whose CPU share the traced run
// reports, plus the arena pools and the Go runtime; everything else
// (the perftest and osu benchmarks, rng, stats, this program) folds into
// "other".
var cpuLayers = []string{"sim", "uct", "ucp", "mpi", "pcie", "nic", "topo", "memsim", "analyzer",
	"faults", "workload", "trace", "arena", "runtime", "other"}

// foldProfile merges the CPU profiles with `go tool pprof -top` and folds
// each function's flat share into its layer.
func foldProfile(files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, files...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", line)
		}
		shares[layerOf(f[5])] += pct / 100
	}
	if !rows {
		return nil, fmt.Errorf("go tool pprof printed no rows")
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	const internal = "breakband/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
