//go:build !race

package ssg

const raceEnabled = false
