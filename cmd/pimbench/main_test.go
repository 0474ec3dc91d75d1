package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes pins the CLI contract: every usage error exits 2 —
// including ones combined with -list, which used to return before
// validation and exit 0 on bad flags — and -list itself exits 0 with
// the full experiment registry on stdout.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list ok", []string{"-list"}, 0},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad scale", []string{"-scale", "0", "ext-fault"}, 2},
		{"bad scale with list", []string{"-list", "-scale", "0"}, 2},
		{"bad format with list", []string{"-list", "-format", "bogus"}, 2},
		{"bad format", []string{"-format", "bogus", "ext-route"}, 2},
		{"out without json", []string{"-out", t.TempDir(), "ext-route"}, 2},
		{"unknown id", []string{"no-such-experiment"}, 2},
		{"trace-sample without metrics", []string{"-trace-sample", "4", "ext-cluster"}, 2},
		{"hold without metrics", []string{"-hold", "5s", "ext-cluster"}, 2},
		{"negative queries", []string{"-queries", "-1", "table1"}, 2},
		{"zero nodes", []string{"-nodes", "0", "ext-cluster"}, 2},
		{"negative replicas", []string{"-replicas", "-1", "ext-cluster"}, 2},
		{"replicas exceed nodes", []string{"-nodes", "2", "-replicas", "3", "ext-cluster"}, 2},
		{"replicas exceed nodes with list", []string{"-list", "-nodes", "2", "-replicas", "3"}, 2},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d (stderr: %s)", tc.name, tc.args, got, tc.want, stderr.String())
		}
		if tc.want != 0 && stderr.Len() == 0 {
			t.Errorf("%s: usage error with empty stderr", tc.name)
		}
	}
}

// TestRunListShowsAllExperiments keeps -list as the discovery surface:
// the paper's tables and figures and the gated or committed extension
// sweeps must be registered.
func TestRunListShowsAllExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list) = %d: %s", got, stderr.String())
	}
	for _, id := range []string{"table1", "fig17", "ext-fault", "ext-route", "ext-durable", "ext-cluster", "ext-kernels"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}
