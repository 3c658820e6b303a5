package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"eventnet/internal/ets"
	"eventnet/internal/syntax"
	"eventnet/internal/topo"
)

// TestMain runs the test binary as snkc itself when SNKC_RUN_MAIN is set,
// so that tests see the command's output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("SNKC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// snkc runs the command with args and returns its stdout, stderr and exit
// code.
func snkc(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SNKC_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestRefusesNonLocal: snkc exits 1 on every program of the negative
// corpus (testdata/nonlocal at the module root), printing ets.Compile's
// evidence and no artifacts.
func TestRefusesNonLocal(t *testing.T) {
	files, err := filepath.Glob("../../testdata/nonlocal/*.snk")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := syntax.ParseProgram(string(src), []int{0})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		_, _, _, want := ets.Compile(p, topo.Firewall(), nil, 0)
		if want == nil {
			t.Fatalf("%s: ets.Compile accepted it", f)
		}
		stdout, stderr, code := snkc(t, "-src", f, "-init", "0", "-topo", "firewall")
		if code != 1 || stdout != "" || stderr != "snkc: "+want.Error()+"\n" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and the evidence %q", f, code, stdout, stderr, want)
		}
	}
}

// TestUnrollsLoops: a program whose state graph has a loop is compiled
// as an -unroll-round unrolling, after a note, through the same cache.
func TestUnrollsLoops(t *testing.T) {
	src := filepath.Join(t.TempDir(), "toggle.snk")
	toggle := "pt=2 & a=1; pt<-1; (state=[0]; (1:1)=>(4:1)<state<-[1]> + state=[1]; (1:1)=>(4:1)<state<-[0]>); pt<-2\n"
	if err := os.WriteFile(src, []byte(toggle), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := snkc(t, "-src", src, "-init", "0", "-unroll", "3")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"note: the state graph has loops (locality true); compiling a 3-round unrolling\n", "ETS: 4 states, 3 transitions, 3 events", "locally determined: true\n"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}
