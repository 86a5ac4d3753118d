package nn

// The AVX2 kernel set, in kernels_amd64.s. The kernels multiply with
// VMULPD and then add with VADDPD, never a fused multiply-add, so each
// lane rounds exactly as the Go kernels' scalar MULSD and ADDSD do.

var avx2Kernels = kernelSet{
	name:          "avx2",
	forward4:      forward4AVX2,
	backward4:     backward4AVX2,
	packedForward: packedForwardAVX2,
}

func init() {
	if hasAVX2() {
		kernelSets = append(kernelSets, avx2Kernels)
		kernels = avx2Kernels
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1 reports OSXSAVE and AVX,
// leaf 7 reports AVX2, and XCR0 has the XMM and YMM state bits set.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of XCR0.
func xgetbv() (lo, hi uint32)

//go:noescape
func forward4AVX2(y, hT, w, bias []float64)

//go:noescape
func backward4AVX2(gw, gb, w, dT, p, nx []float64)

//go:noescape
func packedForwardAVX2(y, h, wT, bias []float64)
