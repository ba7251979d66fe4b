package main

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// Both ranks' blocks reach the execute, and rank 0's image lands in dir.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	if err := run(&out, dir); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	// Blocks go to server id mod 2, so each server holds exactly one
	// rank's two blocks.
	rows := regexp.MustCompile(`(?m)^server \d: \d+ triangles from (\d+) blocks`).FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 2 {
		t.Fatalf("want one summary per server:\n%s", out.String())
	}
	for _, r := range rows {
		if n, _ := strconv.Atoi(r[1]); n != 2 {
			t.Fatalf("a server executed %d blocks, want 2 (one rank's share):\n%s", n, out.String())
		}
	}
	f, err := os.Open(filepath.Join(dir, "quickstart.png"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := png.Decode(f); err != nil {
		t.Fatalf("quickstart.png: %v", err)
	}
}
