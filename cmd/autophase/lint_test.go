package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLintMain captures one lintMain invocation.
func runLintMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = lintMain(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestLintJSONGolden pins the machine-readable lint format: one JSON
// object per diagnostic line, byte-identical to the committed golden.
func TestLintJSONGolden(t *testing.T) {
	stdout, stderr, code := runLintMain(t,
		"-program", "file:"+filepath.Join("testdata", "lint", "dominance.ir"), "-json")
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (the fixture has an error-severity finding); stderr: %s", code, stderr)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "lint", "dominance.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(golden) {
		t.Errorf("lint -json output differs from testdata/lint/dominance.golden:\n--- got ---\n%s--- want ---\n%s", stdout, golden)
	}
}

// TestLintJSONOneObjectPerLine checks the contract baseline consumers
// (scripts/lint-baseline.sh, CI diffing) rely on: every non-empty stdout
// line is a standalone JSON object with the documented fields.
func TestLintJSONOneObjectPerLine(t *testing.T) {
	stdout, _, code := runLintMain(t,
		"-program", "file:"+filepath.Join("testdata", "lint", "dominance.ir"), "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want >= 2 diagnostics (one error, one warning), got %d:\n%s", len(lines), stdout)
	}
	sawError := false
	for _, line := range lines {
		var d lintDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line is not a standalone JSON object: %q: %v", line, err)
		}
		if d.Severity == "" || d.Check == "" || d.Msg == "" {
			t.Errorf("diagnostic missing required fields: %+v", d)
		}
		if d.Severity == "error" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("fixture produced no error-severity diagnostic")
	}
}

// TestLintCleanProgramExitsZero: a verifiable benchmark yields no errors
// and exit status 0 even when warnings are present.
func TestLintCleanProgramExitsZero(t *testing.T) {
	stdout, stderr, code := runLintMain(t, "-program", "matmul", "-json")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	for _, line := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
		if line == "" {
			continue
		}
		var d lintDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if d.Severity == "error" {
			t.Errorf("clean benchmark produced an error diagnostic: %+v", d)
		}
	}
}

// TestLintLoadFailureExitsTwo: a program that cannot load is a usage
// failure (2), distinct from findings (1), so baseline scripts can refuse
// to record a truncated run.
func TestLintLoadFailureExitsTwo(t *testing.T) {
	_, stderr, code := runLintMain(t, "-program", "no-such-benchmark", "-json")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Errorf("stderr does not name the bad program: %q", stderr)
	}
}

// TestLintTextMode covers the human-readable path's summary line and exit
// code.
func TestLintTextMode(t *testing.T) {
	stdout, _, code := runLintMain(t,
		"-program", "file:"+filepath.Join("testdata", "lint", "dominance.ir"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stdout, "lint: 1 errors, 1 warnings") {
		t.Errorf("missing summary line in text output:\n%s", stdout)
	}

	stdout, _, code = runLintMain(t, "-program", "matmul")
	if code != 0 {
		t.Fatalf("clean text-mode exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout, "lint: ok") {
		t.Errorf("missing ok line in clean text output:\n%s", stdout)
	}
}
