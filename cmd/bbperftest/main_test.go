package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the command itself: with
// BBPERFTEST_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BBPERFTEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo runs the command on flag values that used to panic
// with a goroutine dump or quietly run nothing. Each must exit 2 before
// building a system, naming the bad flag and value on stderr.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string // stderr substrings
	}{
		{[]string{"-droprate", "2", "lossy"}, []string{"-droprate", "drop rate 2 "}},
		{[]string{"-corruptrate", "-1", "lossy"}, []string{"-corruptrate", "corrupt rate -1 "}},
		{[]string{"-seeds", "0", "chaos"}, []string{"-seeds 0"}},
		{[]string{"-flapport", "nope", "flap"}, []string{`-flapport "nope"`, "leaf1.up0"}},
		{[]string{"-size", "-5", "put_bw"}, []string{"-size -5"}},
		{[]string{"-cores", "-3", "multi"}, []string{"-cores -3"}},
		{[]string{"-cores", "0", "multi"}, []string{"-cores 0"}},
		{[]string{"-iters", "-1", "put_bw"}, []string{"-iters -1"}},
		{[]string{"-warmup", "-4", "put_bw"}, []string{"-warmup -4"}},
		{[]string{"-rxbudget", "-1", "oversub"}, []string{"-rxbudget -1"}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "BBPERFTEST_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			for _, w := range c.want {
				if !strings.Contains(msg, w) {
					t.Errorf("stderr %q does not contain %q", msg, w)
				}
			}
			if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
				t.Errorf("stderr carries a panic trace:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("ran before rejecting the flag; stdout:\n%s", stdout.String())
			}
		})
	}
}
