// Command bbosu mimics the OSU microbenchmarks for the simulated system: the
// message-rate test (osu_mbw_mr style, without the per-window sync, per the
// paper's §6 footnote) and the point-to-point latency test (osu_latency
// style). Their observed values validate the paper's full-stack models.
//
// Usage:
//
//	bbosu [flags] mr|latency
package main

import (
	"flag"
	"fmt"
	"os"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/osu"
)

var (
	flagWindows = flag.Int("windows", 20, "isend windows (mr)")
	flagWindow  = flag.Int("window", 0, "isends per window (default: calibrated config)")
	flagIters   = flag.Int("iters", 1000, "ping-pong iterations (latency)")
	flagSize    = flag.Int("size", 8, "message size in bytes")
	flagNoise   = flag.Bool("noise", false, "enable the stochastic timing model")
	flagSeed    = flag.Uint64("seed", 1, "random seed")
	flagDirect  = flag.Bool("direct", false, "no switch between the NICs")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bbosu [flags] mr|latency")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := checkFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "bbosu:", err)
		os.Exit(2)
	}
	noise := config.NoiseOff
	if *flagNoise {
		noise = config.NoiseOn
	}
	sys := node.NewSystem(config.TX2CX4(noise, *flagSeed, !*flagDirect), 2)
	defer sys.Shutdown()

	switch flag.Arg(0) {
	case "mr":
		res := osu.MessageRate(sys, osu.Options{Windows: *flagWindows, Window: *flagWindow, MsgSize: *flagSize})
		fmt.Println(res)
		fmt.Printf("paper model (Equation 2): 264.97 ns/msg; paper observed: %.2f ns/msg\n",
			config.TabObsOverallInj)
	case "latency":
		res := osu.Latency(sys, osu.Options{Iters: *flagIters, MsgSize: *flagSize})
		fmt.Println(res)
		fmt.Printf("paper model (§6): %.2f ns; paper observed: %.2f ns\n",
			config.TabE2ELatencyModel, config.TabObsE2ELatency)
	default:
		fmt.Fprintf(os.Stderr, "bbosu: unknown test %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// checkFlags rejects flag values that would otherwise panic inside the
// benchmark or print a meaningless rate, naming the bad flag. Zero keeps
// each flag's default, so only negative values are errors.
func checkFlags() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-windows", *flagWindows}, {"-window", *flagWindow},
		{"-iters", *flagIters}, {"-size", *flagSize},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: must not be negative", f.name, f.v)
		}
	}
	return nil
}
