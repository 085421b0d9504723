package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirModule writes a throwaway module, changes into it, and restores the
// working directory when the test ends.
func chdirModule(t *testing.T, files map[string]string) {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Fatal(err)
		}
	})
}

const dirtyModule = `package pkg

func Close(got float64) bool {
	return got == 0.1
}
`

func TestRunJSONFindings(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": dirtyModule,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d JSON lines, want 1:\n%s", len(lines), stdout.String())
	}
	var d jsonDiag
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("unmarshal %q: %v", lines[0], err)
	}
	if d.Analyzer != "floatcmp" || d.Line != 4 || d.Col == 0 || !strings.HasSuffix(d.File, "pkg.go") {
		t.Fatalf("diag = %+v", d)
	}
	if d.Message == "" {
		t.Fatal("empty message")
	}
}

func TestRunCleanModule(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\n\nfunc Double(x int) int { return x + x }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run wrote to stdout: %s", stdout.String())
	}
}

// TestRunSkipsNestedModule: like the go command, "./..." stops at a nested
// directory carrying its own go.mod — that is another module — while the
// same dirty source in a plain subdirectory is still linted.
func TestRunSkipsNestedModule(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":            "module example.test\n\ngo 1.22\n",
		"pkg/ok.go":         "package pkg\n",
		"nested/go.mod":     "module example.test/nested\n\ngo 1.22\n",
		"nested/pkg/pkg.go": dirtyModule,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (nested module skipped)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if err := os.WriteFile("pkg/pkg.go", []byte(dirtyModule), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1 (finding in the module's own package)\nstdout: %s", code, stdout.String())
	}
}

func TestRunTestsFlagExtendsCorpus(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\n\nfunc Double(x int) int { return x + x }\n",
		// The leak lives in a test helper: only test-aware analyzers (the
		// flow-sensitive four) report in _test.go files, and only when the
		// corpus actually includes them.
		"pkg/pkg_test.go": `package pkg

import "sync"

var mu sync.Mutex

func helper(cond bool) int {
	mu.Lock()
	if cond {
		return 0
	}
	mu.Unlock()
	return Double(1)
}
`,
	})
	var stdout, stderr bytes.Buffer
	// Without -tests the _test.go defect is invisible...
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit without -tests = %d, want 0\nstderr: %s", code, stderr.String())
	}
	// ...with it, the same tree is dirty.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-tests", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit with -tests = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "lockcheck") {
		t.Fatalf("stdout = %s", stdout.String())
	}
}

// TestRunDirLiteralFixture drives the topology-boundary rule end-to-end: a
// module with its own internal/topo defining the 2D vocabulary, one package
// hard-coding it (dirty), and the topo package itself (exempt).
func TestRunDirLiteralFixture(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod": "module example.test\n\ngo 1.22\n",
		"internal/topo/topo.go": `package topo

type Dir int

const (
	XPlus Dir = iota
	XMinus
	YPlus
	YMinus
	NumDirs
)

// reverse may use the vocabulary freely: it is definitional here.
func reverse(d Dir) Dir { return d ^ 1 }
`,
		"internal/sim/sim.go": `package sim

import "example.test/internal/topo"

func Ports() int { return int(topo.NumDirs) }

func Fixed() topo.Dir { return topo.Dir(2) }

func Typed(p int) topo.Dir { return topo.Dir(p) }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rules", "dirliteral", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2 (NumDirs use + Dir literal):\n%s", len(lines), stdout.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "sim.go") || !strings.Contains(l, "dirliteral") {
			t.Fatalf("unexpected finding %q", l)
		}
	}
}

func TestRunUnknownRuleExits2(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuchrule") {
		t.Fatalf("stderr = %s", stderr.String())
	}
}

func TestRunLoadErrorExits2(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\n\nfunc Broken( {\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
	}
}

func TestRunListNamesAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"floatcmp", "errdrop", "lockcheck", "goleak", "detwalk", "randsource"} {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

// failWriter fails every write, simulating a closed pipe downstream.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("pipe gone") }

func TestRunOutputFailureExits2(t *testing.T) {
	chdirModule(t, map[string]string{
		"go.mod":     "module example.test\n\ngo 1.22\n",
		"pkg/pkg.go": dirtyModule,
	})
	var stderr bytes.Buffer
	// Findings exist but never reach the consumer: the run must not report
	// the ordinary dirty status, let alone a clean one.
	if code := run([]string{"./..."}, failWriter{}, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "writing output") {
		t.Fatalf("stderr = %s", stderr.String())
	}
}
