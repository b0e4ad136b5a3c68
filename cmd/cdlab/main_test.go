package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 runs the CLI in-process on usage errors, each of
// which must be rejected before any runner does work. Where want is set,
// stderr must contain it.
func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{args: []string{"bogus"}},
		{args: []string{"run", "fig6", "-j", "0"}},
		{args: []string{"run", "fig6", "-set", "seed"}},
		{args: []string{"run", "table1", "-set", "retention-trials=3"}, want: `unknown override key "retention-trials"`},
		{args: []string{"run", "table1", "-set", "mlp=4"}, want: `unknown override key "mlp"`},
		{args: []string{"run", "fig6", "-full"}},
		{args: []string{"run", "all", "fig6"}},
		{args: []string{"run", "fig6", "fig6"}},
		{args: []string{"run", "fig6", "table1", "fig6", "-remote", "127.0.0.1:1"}},
		{args: []string{"run", "fig6", "-remote", "127.0.0.1:1", "-cache-dir", t.TempDir()}},
		{args: []string{"serve", "-j", "0"}},
		{args: []string{"worker", "-connect", "127.0.0.1:1", "-j", "0"}},
	} {
		code, stderr := runCapturingStderr(t, c.args)
		if code != 2 {
			t.Errorf("cdlab %v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("cdlab %v: stderr %q does not contain %q", c.args, stderr, c.want)
		}
	}
}

// runCapturingStderr runs the CLI in-process with os.Stderr sent to a file
// and returns the exit code and what it wrote there.
func runCapturingStderr(t *testing.T, args []string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stderr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}
