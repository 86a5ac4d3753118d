//go:build race

package core

// raceBuild is true when the tests run under the race detector, which
// slows the compile path about tenfold.
const raceBuild = true
