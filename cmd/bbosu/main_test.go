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
// BBOSU_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BBOSU_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo runs the command on flag values that used to panic
// with a goroutine dump or print a negative or infinite rate. Each must
// exit 2 before building a system, naming the bad flag and value on stderr.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-size", "-1", "mr"}, "-size -1"},
		{[]string{"-size", "-5", "latency"}, "-size -5"},
		{[]string{"-window", "-3", "mr"}, "-window -3"},
		{[]string{"-windows", "-2", "mr"}, "-windows -2"},
		{[]string{"-iters", "-1", "latency"}, "-iters -1"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "BBOSU_MAIN=1")
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
