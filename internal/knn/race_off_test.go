//go:build !race

package knn_test

// See race_on_test.go.
const raceEnabled = false
