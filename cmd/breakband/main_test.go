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
// BREAKBAND_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BREAKBAND_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo runs the command on flag values that used to print a
// negative or infinite rate or an empty histogram, or were silently
// replaced. Each must exit 2 before running anything, naming the bad flag
// and value on stderr.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-windows", "-1", "bench"}, "-windows -1"},
		{[]string{"-fig7-iters", "-5", "fig7"}, "-fig7-iters -5"},
		{[]string{"-samples", "5", "table1"}, "-samples 5"},
		{[]string{"-samples", "-1", "table1"}, "-samples -1"},
		{[]string{"-parallel", "-2", "table1"}, "-parallel -2"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "BREAKBAND_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, c.want) {
				t.Errorf("stderr %q does not contain %q", msg, c.want)
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
