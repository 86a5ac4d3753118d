// Package faults is a deterministic, seed-driven fault injector for the
// evaluation stack. Injection points are registered in the packages whose
// failures the containment layer must survive (passes, interp, hls,
// features); each point draws from a counter-hashed splitmix64 stream, so a
// given (seed, point, draw-number) triple always decides the same way. A
// single-threaded run is therefore exactly reproducible, and a concurrent
// run produces a fixed multiset of decisions regardless of interleaving.
//
// The injector is process-global and disabled by default: an inactive
// injector costs one atomic load per potential injection site, and the
// per-point draw counters do not advance, so runs with injection disabled
// are bit-identical to builds that predate the injector.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Point identifies one registered injection site class.
type Point int

// Registered injection points.
const (
	// PassPanic panics inside a transform pass run (registered in
	// passes.Apply, surfaced as a passes.PassPanic).
	PassPanic Point = iota
	// InterpStall simulates a wall-clock stall in the interpreter's step
	// loop (registered at interp's deadline poll, surfaced as
	// interp.ErrDeadline).
	InterpStall
	// ProfileErr fails an HLS profile invocation with an error (registered
	// in hls.Profiler's Profile and ProfileFP).
	ProfileErr
	// FeaturePanic panics inside feature extraction (registered in
	// features.Extract).
	FeaturePanic
	// VMPanic panics inside the bytecode VM's dispatch setup (registered in
	// vm.Run, contained by core's profile-stage recover boundary). The VM
	// also draws InterpStall at its strided poll, exactly like the
	// tree-walking interpreter.
	VMPanic
	// DiskCorrupt marks a record in the persistent artifact store as
	// corrupt while it is decoded (registered in artifact.Store's segment
	// loader). The store's contract turns corruption into a cache miss, so
	// a hit at this point exercises the rewrite path, never an error path.
	DiskCorrupt
	// ServePanic panics inside the serve layer's job runner, outside any
	// compile-stage boundary (registered in serve's runJob). The server must
	// contain it: the job fails cleanly as a fault, the worker survives, and
	// no other tenant's jobs are disturbed.
	ServePanic

	numPoints
)

var pointNames = [numPoints]string{
	PassPanic:    "pass-panic",
	InterpStall:  "interp-stall",
	ProfileErr:   "profile-err",
	FeaturePanic: "feature-panic",
	VMPanic:      "vm-panic",
	DiskCorrupt:  "disk-corrupt",
	ServePanic:   "serve-panic",
}

// String returns the spec name of the point ("pass-panic", ...).
func (p Point) String() string {
	if p < 0 || p >= numPoints {
		return fmt.Sprintf("faults.Point(%d)", int(p))
	}
	return pointNames[p]
}

// ErrInjected marks every failure the injector manufactures; containment
// and replay tooling can tell injected faults from organic ones with
// errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Spec configures the injector: a per-point probability in [0,1] and the
// seed of the decision stream.
type Spec struct {
	Seed  int64
	Rates map[Point]float64
}

// ParseSpec parses the CLI form "pass-panic:0.01,interp-stall:0.005". An
// empty string yields an empty (all-zero-rate) spec.
func ParseSpec(s string, seed int64) (Spec, error) {
	sp := Spec{Seed: seed, Rates: make(map[Point]float64)}
	if strings.TrimSpace(s) == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, rateStr, ok := strings.Cut(field, ":")
		if !ok {
			return Spec{}, fmt.Errorf("faults: bad spec entry %q (want point:rate)", field)
		}
		point := Point(-1)
		for p, n := range pointNames {
			if n == strings.TrimSpace(name) {
				point = Point(p)
				break
			}
		}
		if point < 0 {
			return Spec{}, fmt.Errorf("faults: unknown injection point %q (known: %s)",
				name, strings.Join(pointNames[:], ", "))
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil || rate < 0 || rate > 1 {
			return Spec{}, fmt.Errorf("faults: bad rate %q for %s (want 0..1)", rateStr, point)
		}
		sp.Rates[point] = rate
	}
	return sp, nil
}

// injector is one enabled configuration plus its per-point draw counters.
type injector struct {
	seed  int64
	rates [numPoints]float64
	ctr   [numPoints]atomic.Uint64
}

var current atomic.Pointer[injector]

// Enable activates injection under the given spec, replacing any previous
// configuration and resetting the draw counters.
func Enable(sp Spec) error {
	inj := &injector{seed: sp.Seed}
	for p, r := range sp.Rates {
		if p < 0 || p >= numPoints {
			return fmt.Errorf("faults: unknown injection point %d", int(p))
		}
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: rate %v for %s out of range 0..1", r, p)
		}
		inj.rates[p] = r
	}
	current.Store(inj)
	return nil
}

// Disable deactivates injection; sites fall back to the one-atomic-load
// fast path.
func Disable() { current.Store(nil) }

// Hit draws the next decision for p: true means the site must inject its
// fault. Inactive injectors (and zero-rate points) never hit and never
// advance a counter.
func Hit(p Point) bool {
	inj := current.Load()
	if inj == nil {
		return false
	}
	rate := inj.rates[p]
	if rate <= 0 {
		return false
	}
	n := inj.ctr[p].Add(1)
	x := splitmix64(uint64(inj.seed) ^ (uint64(p)+1)<<56 ^ n)
	return float64(x>>11)/(1<<53) < rate
}

// Fail is Hit for error-returning sites: a non-nil result is the injected
// failure the site must return.
func Fail(p Point) error {
	if Hit(p) {
		return fmt.Errorf("%s: %w", p, ErrInjected)
	}
	return nil
}

// Draws reports how many decisions each point has drawn since Enable —
// chaos tests use it to confirm the points actually fired.
func Draws() map[Point]uint64 {
	inj := current.Load()
	if inj == nil {
		return nil
	}
	out := make(map[Point]uint64, numPoints)
	for p := Point(0); p < numPoints; p++ {
		if n := inj.ctr[p].Load(); n > 0 {
			out[p] = n
		}
	}
	return out
}

// splitmix64 is the standard 64-bit finalizing mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
