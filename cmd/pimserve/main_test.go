package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes pins pimserve's usage contract: bad flags and bad
// tenant specs exit 2 before any dataset is generated; -list-variants
// exits 0 with the variant registry.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list variants", []string{"-list-variants"}, 0},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"positional junk", []string{"serve", "now"}, 2},
		{"bad n", []string{"-n", "0"}, 2},
		{"bad max-k", []string{"-max-k", "0"}, 2},
		{"unknown variant", []string{"-variant", "bogus"}, 2},
		{"negative shards", []string{"-shards", "-1"}, 2},
		{"negative workers", []string{"-workers", "-2"}, 2},
		{"negative slots", []string{"-slots", "-1"}, 2},
		{"tenant no name", []string{"-tenants", ":2:10"}, 2},
		{"tenant too many fields", []string{"-tenants", "a:1:2:3:4"}, 2},
		{"tenant bad number", []string{"-tenants", "a:fast"}, 2},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: run(%v) = %d, want %d (stderr: %s)", tc.name, tc.args, got, tc.want, stderr.String())
		}
	}
}

// TestParseTenants pins the name:weight:rate:burst grammar including
// right-side omission.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants("hot:3:100:200,cold:1:10,free")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(got))
	}
	if got[0].Name != "hot" || got[0].Weight != 3 || got[0].Rate != 100 || got[0].Burst != 200 {
		t.Errorf("hot = %+v", got[0])
	}
	if got[1].Name != "cold" || got[1].Weight != 1 || got[1].Rate != 10 || got[1].Burst != 0 {
		t.Errorf("cold = %+v", got[1])
	}
	if got[2].Name != "free" || got[2].Weight != 0 || got[2].Rate != 0 {
		t.Errorf("free = %+v", got[2])
	}
	if _, err := parseTenants("a:1,,b:2"); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("empty entry err = %v", err)
	}
}

// TestRunListVariantsOutput keeps -list-variants as the discovery
// surface for per-shard searchers.
func TestRunListVariantsOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list-variants"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run(-list-variants) = %d: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "standard") {
		t.Errorf("variant list missing %q: %s", "standard", stdout.String())
	}
}
