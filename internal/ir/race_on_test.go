//go:build race

package ir_test

// raceBuild is true when the tests run under the race detector, where
// sync.Pool drops a random share of the values put back.
const raceBuild = true
