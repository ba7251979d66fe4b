package main

import (
	"bytes"
	"regexp"
	"testing"
)

func TestOverlap(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, t.TempDir()); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if rows := regexp.MustCompile(`(?m)^ +\d+  `).FindAllString(out.String(), -1); len(rows) != iterations {
		t.Fatalf("printed %d iterations, want %d:\n%s", len(rows), iterations, out.String())
	}
}
