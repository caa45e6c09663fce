package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paperexample.golden with this build's output")

var goldenFile = filepath.Join("testdata", "paperexample.golden")

// TestGoldenOutput runs the example and compares everything it prints,
// the Figure 3 lazy-greedy walkthrough included, with the recorded output.
func TestGoldenOutput(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s (rewrite it with -update if the change is meant):\n--- got\n%s--- want\n%s", goldenFile, got, want)
	}
}
