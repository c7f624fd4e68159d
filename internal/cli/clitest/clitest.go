// Package clitest checks the run binaries' run functions against the
// goldens in testdata/cli: flags-<binary>.txt lists every flag as
// "name<TAB>type<TAB>default"; <run>.stdout is a run's stdout with its
// output directory written as OUT; <run>.sha256 lists, in sha256sum
// format, every file the run wrote under its -metrics-out base. Set
// WSMALLOC_UPDATE_GOLDEN=1 to rewrite them for an intended change.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Run is a binary's run function.
type Run func(args []string, stdout, stderr io.Writer) int

// Surface checks every flag of fs against flags-<name>.txt.
func Surface(t *testing.T, name string, fs *flag.FlagSet) {
	t.Helper()
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "%s\t%T\t%q\n", f.Name, f.Value.(flag.Getter).Get(), f.DefValue)
	})
	golden(t, "flags-"+name+".txt", b.String())
}

// Usage checks that run(args) exits with code 2 and names want on
// stderr.
func Usage(t *testing.T, run Run, want string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), want) {
		t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %q", args, code, stderr.String(), want)
	}
}

// Output runs run(args), which writes under dir, and checks that it
// exits with code, that its stdout matches <name>.stdout and, when code
// is 0, that the files dir/base.* match <name>.sha256.
func Output(t *testing.T, run Run, name, dir, base string, code int, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != code {
		t.Fatalf("%s: exit %d, want %d; stderr: %s", name, got, code, stderr.String())
	}
	golden(t, name+".stdout", strings.ReplaceAll(stdout.String(), dir, "OUT"))
	if code != 0 {
		return
	}
	paths, _ := filepath.Glob(filepath.Join(dir, base+".*"))
	var sums strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(data), filepath.Base(p))
	}
	golden(t, name+".sha256", sums.String())
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "cli", name)
	if os.Getenv("WSMALLOC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err != nil || got != string(want) {
		t.Errorf("%s differs from the golden (err %v):\n--- got\n%s--- want\n%s", name, err, got, want)
	}
}
