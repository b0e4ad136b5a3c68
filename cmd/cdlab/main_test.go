package main

import "testing"

// TestUsageErrorsExit2 runs the CLI in-process on usage errors, each of
// which must be rejected before any runner does work.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"run", "fig6", "-j", "0"},
		{"run", "fig6", "-set", "seed"},
		{"run", "table1", "-set", "retention-trials=3"},
		{"run", "fig6", "-full"},
		{"run", "all", "fig6"},
		{"run", "fig6", "fig6"},
		{"run", "fig6", "table1", "fig6", "-remote", "127.0.0.1:1"},
		{"run", "fig6", "-remote", "127.0.0.1:1", "-cache-dir", t.TempDir()},
		{"serve", "-j", "0"},
		{"worker", "-connect", "127.0.0.1:1", "-j", "0"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("cdlab %v: exit %d, want 2", args, code)
		}
	}
}
