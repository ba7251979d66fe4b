package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// The staging area grows from 1 to 4 servers under the growing dataset
// and is 3 after the leave; the cells each iteration renders never shrink.
func TestDWIElastic(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, t.TempDir()); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var sizes []int
	cells := 0
	for _, r := range regexp.MustCompile(`(?m)^ +\d+ +(\d+) +(\d+) `).FindAllStringSubmatch(out.String(), -1) {
		n, _ := strconv.Atoi(r[1])
		c, _ := strconv.Atoi(r[2])
		if c < cells {
			t.Fatalf("cells fell from %d to %d:\n%s", cells, c, out.String())
		}
		sizes, cells = append(sizes, n), c
	}
	for i := 1; i < len(sizes)-1; i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("view sizes %v shrink before the leave", sizes)
		}
	}
	if len(sizes) < 3 || sizes[0] != 1 || sizes[len(sizes)-2] != 4 || sizes[len(sizes)-1] != 3 {
		t.Fatalf("view sizes %v, want 1 growing to 4, then 3 after the leave:\n%s", sizes, out.String())
	}
}
