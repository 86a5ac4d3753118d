//go:build !race

package ir_test

const raceBuild = false
