//go:build !race

package rdd

const raceEnabled = false
