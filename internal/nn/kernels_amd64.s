#include "textflag.h"

// AVX2 versions of the kernels in kernels.go; the comments there give each
// kernel's contract. Every lane multiplies with VMULPD or VMULSD and then
// adds with VADDPD or VADDSD, in the order the Go kernels use.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func forward4AVX2(y, hT, w, bias []float64)
//
// Vectorized across the block's four samples: Y0-Y3 hold outputs o to o+3
// for all four samples, and each adds bcast(w[o][i])·hT[i] with i
// ascending. Outputs left over from blocks of four run one at a time.
TEXT ·forward4AVX2(SB), NOSPLIT, $0-96
	MOVQ y_base+0(FP), DI
	MOVQ hT_base+24(FP), SI
	MOVQ hT_len+32(FP), CX
	SHRQ $2, CX                  // CX = in
	MOVQ w_base+48(FP), R8       // R8 = &w[o][0]
	MOVQ bias_base+72(FP), R9    // R9 = &bias[o]
	MOVQ bias_len+80(FP), BX     // BX = outputs left
	MOVQ CX, R11
	SHLQ $3, R11                 // R11 = row stride in bytes

fwd_block:
	CMPQ BX, $4
	JLT  fwd_one
	VBROADCASTSD (R9), Y0
	VBROADCASTSD 8(R9), Y1
	VBROADCASTSD 16(R9), Y2
	VBROADCASTSD 24(R9), Y3
	MOVQ R8, R12                 // &w[o][i]; row o+1 at R11 past it
	LEAQ (R8)(R11*2), R13        // &w[o+2][i]; row o+3 at R11 past it
	MOVQ SI, DX                  // &hT[i]
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   fwd_block_store

fwd_block_i:
	VMOVUPD      (DX), Y4
	VBROADCASTSD (R12), Y5
	VBROADCASTSD (R12)(R11*1), Y6
	VBROADCASTSD (R13), Y7
	VBROADCASTSD (R13)(R11*1), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, DX
	ADDQ         $8, R12
	ADDQ         $8, R13
	DECQ         AX
	JNZ          fwd_block_i

fwd_block_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $32, R9
	LEAQ    (R8)(R11*4), R8
	SUBQ    $4, BX
	JMP     fwd_block

fwd_one:
	TESTQ BX, BX
	JZ    fwd_done
	VBROADCASTSD (R9), Y0
	MOVQ R8, R12
	MOVQ SI, DX
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   fwd_one_store

fwd_one_i:
	VBROADCASTSD (R12), Y5
	VMULPD       (DX), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, DX
	ADDQ         $8, R12
	DECQ         AX
	JNZ          fwd_one_i

fwd_one_store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $8, R9
	ADDQ    R11, R8
	DECQ    BX
	JMP     fwd_one

fwd_done:
	VZEROUPPER
	RET

// BWD_BLOCK_STEP(off, P, N) adds sample k's terms for one output to the
// gradient row in Y9 and to the dL/dh accumulator N, where off = 8k is d_k's
// offset in the output's dT entry and P holds p_k[i:i+4]. Y8 holds
// w[o][i:i+4].
#define BWD_BLOCK_STEP(off, P, N) \
	VBROADCASTSD off(R13), Y10; \
	VMULPD       P, Y10, Y11; \
	VADDPD       Y11, Y9, Y9; \
	VMULPD       Y8, Y10, Y12; \
	VADDPD       Y12, N, N

// BWD_ONE_STEP is BWD_BLOCK_STEP for a single column i, in X registers.
#define BWD_ONE_STEP(off, P, N) \
	VMOVSD off(R13), X10; \
	VMULSD P, X10, X11; \
	VADDSD X11, X9, X9; \
	VMULSD X8, X10, X12; \
	VADDSD X12, N, N

// GW_BLOCK_STEP and GW_ONE_STEP are the steps without dL/dh.
#define GW_BLOCK_STEP(off, P) \
	VBROADCASTSD off(R13), Y10; \
	VMULPD       P, Y10, Y11; \
	VADDPD       Y11, Y9, Y9

#define GW_ONE_STEP(off, P) \
	VMOVSD off(R13), X10; \
	VMULSD P, X10, X11; \
	VADDSD X11, X9, X9

// func backward4AVX2(gw, gb, w, dT, p, nx []float64)
//
// Vectorized across inputs: for each column block i:i+4, Y0-Y3 hold the
// four samples' inputs and Y4-Y7 their dL/dh, and the loop over outputs o
// ascending adds d_k·p_k[i:i+4] to gw[o][i:i+4] for k = 0 to 3 in turn and
// d_k·w[o][i:i+4] to dL/dh of sample k. Columns left over from blocks of
// four run one at a time.
TEXT ·backward4AVX2(SB), NOSPLIT, $0-144
	// Bias gradients: gb[o] adds d0, d1, d2 and d3 in turn.
	MOVQ gb_base+24(FP), DI
	MOVQ gb_len+32(FP), BX       // BX = out
	MOVQ dT_base+72(FP), R10     // R10 = &dT[0]
	MOVQ R10, DX
	MOVQ BX, CX
	TESTQ CX, CX
	JZ   bwd_done

bwd_bias:
	VMOVSD (DI), X0
	VADDSD (DX), X0, X0
	VADDSD 8(DX), X0, X0
	VADDSD 16(DX), X0, X0
	VADDSD 24(DX), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $32, DX
	DECQ   CX
	JNZ    bwd_bias

	MOVQ gw_base+0(FP), R8       // R8 = &gw[0][i]
	MOVQ w_base+48(FP), R9       // R9 = &w[0][i]
	MOVQ p_base+96(FP), SI       // SI = &p[0][i]; sample k's row k*R11 past it
	MOVQ p_len+104(FP), R12
	SHRQ $2, R12                 // R12 = columns left
	MOVQ R12, R11
	SHLQ $3, R11                 // R11 = row stride in bytes
	MOVQ nx_base+120(FP), DI     // DI = &nx[0][i], laid out as p
	MOVQ nx_len+128(FP), AX
	TESTQ AX, AX
	JZ   gw_block

bwd_block:
	CMPQ R12, $4
	JLT  bwd_one
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R11*1), Y1
	VMOVUPD (SI)(R11*2), Y2
	LEAQ    (SI)(R11*2), AX
	VMOVUPD (AX)(R11*1), Y3
	VMOVUPD (DI), Y4
	VMOVUPD (DI)(R11*1), Y5
	VMOVUPD (DI)(R11*2), Y6
	LEAQ    (DI)(R11*2), AX
	VMOVUPD (AX)(R11*1), Y7
	MOVQ    R8, DX               // &gw[o][i]
	MOVQ    R9, AX               // &w[o][i]
	MOVQ    R10, R13             // &dT[o*4]
	MOVQ    BX, CX

bwd_block_o:
	VMOVUPD (AX), Y8
	VMOVUPD (DX), Y9
	BWD_BLOCK_STEP(0, Y0, Y4)
	BWD_BLOCK_STEP(8, Y1, Y5)
	BWD_BLOCK_STEP(16, Y2, Y6)
	BWD_BLOCK_STEP(24, Y3, Y7)
	VMOVUPD Y9, (DX)
	ADDQ    R11, AX
	ADDQ    R11, DX
	ADDQ    $32, R13
	DECQ    CX
	JNZ     bwd_block_o

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R11*1)
	VMOVUPD Y6, (DI)(R11*2)
	LEAQ    (DI)(R11*2), AX
	VMOVUPD Y7, (AX)(R11*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, R12
	JMP     bwd_block

bwd_one:
	TESTQ R12, R12
	JZ    bwd_done
	VMOVSD (SI), X0
	VMOVSD (SI)(R11*1), X1
	VMOVSD (SI)(R11*2), X2
	LEAQ   (SI)(R11*2), AX
	VMOVSD (AX)(R11*1), X3
	VMOVSD (DI), X4
	VMOVSD (DI)(R11*1), X5
	VMOVSD (DI)(R11*2), X6
	LEAQ   (DI)(R11*2), AX
	VMOVSD (AX)(R11*1), X7
	MOVQ   R8, DX
	MOVQ   R9, AX
	MOVQ   R10, R13
	MOVQ   BX, CX

bwd_one_o:
	VMOVSD (AX), X8
	VMOVSD (DX), X9
	BWD_ONE_STEP(0, X0, X4)
	BWD_ONE_STEP(8, X1, X5)
	BWD_ONE_STEP(16, X2, X6)
	BWD_ONE_STEP(24, X3, X7)
	VMOVSD X9, (DX)
	ADDQ   R11, AX
	ADDQ   R11, DX
	ADDQ   $32, R13
	DECQ   CX
	JNZ    bwd_one_o

	VMOVSD X4, (DI)
	VMOVSD X5, (DI)(R11*1)
	VMOVSD X6, (DI)(R11*2)
	LEAQ   (DI)(R11*2), AX
	VMOVSD X7, (AX)(R11*1)
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R8
	ADDQ   $8, R9
	DECQ   R12
	JMP    bwd_one

	// Without dL/dh (the input layer): the weight gradients alone.
gw_block:
	CMPQ R12, $4
	JLT  gw_one
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R11*1), Y1
	VMOVUPD (SI)(R11*2), Y2
	LEAQ    (SI)(R11*2), AX
	VMOVUPD (AX)(R11*1), Y3
	MOVQ    R8, DX
	MOVQ    R10, R13
	MOVQ    BX, CX

gw_block_o:
	VMOVUPD (DX), Y9
	GW_BLOCK_STEP(0, Y0)
	GW_BLOCK_STEP(8, Y1)
	GW_BLOCK_STEP(16, Y2)
	GW_BLOCK_STEP(24, Y3)
	VMOVUPD Y9, (DX)
	ADDQ    R11, DX
	ADDQ    $32, R13
	DECQ    CX
	JNZ     gw_block_o

	ADDQ $32, SI
	ADDQ $32, R8
	SUBQ $4, R12
	JMP  gw_block

gw_one:
	TESTQ R12, R12
	JZ    bwd_done
	VMOVSD (SI), X0
	VMOVSD (SI)(R11*1), X1
	VMOVSD (SI)(R11*2), X2
	LEAQ   (SI)(R11*2), AX
	VMOVSD (AX)(R11*1), X3
	MOVQ   R8, DX
	MOVQ   R10, R13
	MOVQ   BX, CX

gw_one_o:
	VMOVSD (DX), X9
	GW_ONE_STEP(0, X0)
	GW_ONE_STEP(8, X1)
	GW_ONE_STEP(16, X2)
	GW_ONE_STEP(24, X3)
	VMOVSD X9, (DX)
	ADDQ   R11, DX
	ADDQ   $32, R13
	DECQ   CX
	JNZ    gw_one_o

	ADDQ $8, SI
	ADDQ $8, R8
	DECQ R12
	JMP  gw_one

bwd_done:
	VZEROUPPER
	RET

// func packedForwardAVX2(y, h, wT, bias []float64)
//
// Vectorized across outputs: each ymm accumulator holds one block of four
// outputs and adds wT[ob][i][0:4]·bcast(h[i]) with i ascending. Four blocks
// run at a time, then the blocks left over one at a time.
TEXT ·packedForwardAVX2(SB), NOSPLIT, $0-96
	MOVQ y_base+0(FP), DI
	MOVQ h_base+24(FP), SI
	MOVQ h_len+32(FP), CX        // CX = in
	MOVQ wT_base+48(FP), R8      // R8 = &wT[ob][0][0]
	MOVQ bias_base+72(FP), R9    // R9 = &bias[ob*4]
	MOVQ bias_len+80(FP), BX
	SHRQ $2, BX                  // BX = blocks left
	MOVQ CX, R11
	SHLQ $5, R11                 // R11 = block stride in bytes

pk_block:
	CMPQ BX, $4
	JLT  pk_one
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	MOVQ    R8, AX               // &wT[ob][i]; block ob+1 at R11 past it
	LEAQ    (R8)(R11*2), DX      // &wT[ob+2][i]; block ob+3 at R11 past it
	MOVQ    SI, R10              // &h[i]
	MOVQ    CX, R12
	TESTQ   R12, R12
	JZ      pk_block_store

pk_block_i:
	VBROADCASTSD (R10), Y4
	VMULPD       (AX), Y4, Y5
	VMULPD       (AX)(R11*1), Y4, Y6
	VMULPD       (DX), Y4, Y7
	VMULPD       (DX)(R11*1), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R10
	ADDQ         $32, AX
	ADDQ         $32, DX
	DECQ         R12
	JNZ          pk_block_i

pk_block_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R9
	LEAQ    (R8)(R11*4), R8
	SUBQ    $4, BX
	JMP     pk_block

pk_one:
	TESTQ BX, BX
	JZ    pk_done
	VMOVUPD (R9), Y0
	MOVQ    R8, AX
	MOVQ    SI, R10
	MOVQ    CX, R12
	TESTQ   R12, R12
	JZ      pk_one_store

pk_one_i:
	VBROADCASTSD (R10), Y4
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R10
	ADDQ         $32, AX
	DECQ         R12
	JNZ          pk_one_i

pk_one_store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R9
	ADDQ    R11, R8
	DECQ    BX
	JMP     pk_one

pk_done:
	VZEROUPPER
	RET
