#include "textflag.h"

// AVX2 twins of the Go loops in simd.go. Every lane is an independent output
// element and every per-element chain keeps the Go evaluation order, using
// separate VMULPD/VADDPD (never FMA), so each result is bit-identical to the
// scalar MULSD/ADDSD sequence the compiler emits for the Go twin.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4AVX2(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
//
// c[j] += ((a0*b0[j] + a1*b1[j]) + a2*b2[j]) + a3*b3[j] over len(c); the
// b slices must be at least that long.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   axpy4_quad

axpy4_oct:
	VMULPD (SI)(AX*8), Y0, Y4
	VMULPD 32(SI)(AX*8), Y0, Y8
	VMULPD (R8)(AX*8), Y1, Y5
	VMULPD 32(R8)(AX*8), Y1, Y9
	VADDPD Y5, Y4, Y4
	VADDPD Y9, Y8, Y8
	VMULPD (R9)(AX*8), Y2, Y5
	VMULPD 32(R9)(AX*8), Y2, Y9
	VADDPD Y5, Y4, Y4
	VADDPD Y9, Y8, Y8
	VMULPD (R10)(AX*8), Y3, Y5
	VMULPD 32(R10)(AX*8), Y3, Y9
	VADDPD Y5, Y4, Y4
	VADDPD Y9, Y8, Y8
	VADDPD (DI)(AX*8), Y4, Y4
	VADDPD 32(DI)(AX*8), Y8, Y8
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y8, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  axpy4_oct

axpy4_quad:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpy4_tail
	VMULPD (SI)(AX*8), Y0, Y4
	VMULPD (R8)(AX*8), Y1, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R9)(AX*8), Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R10)(AX*8), Y3, Y5
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

axpy4_tail:
	CMPQ AX, CX
	JGE  axpy4_done
	VMULSD (SI)(AX*8), X0, X4
	VMULSD (R8)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tail

axpy4_done:
	VZEROUPPER
	RET

// func axpy1AVX2(c, b []float64, a float64)
//
// c[j] += a*b[j] over len(c); b must be at least that long.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   axpy1_quad

axpy1_oct:
	VMULPD (SI)(AX*8), Y0, Y4
	VMULPD 32(SI)(AX*8), Y0, Y5
	VADDPD (DI)(AX*8), Y4, Y4
	VADDPD 32(DI)(AX*8), Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  axpy1_oct

axpy1_quad:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpy1_tail
	VMULPD (SI)(AX*8), Y0, Y4
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

axpy1_tail:
	CMPQ AX, CX
	JGE  axpy1_done
	VMULSD (SI)(AX*8), X0, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy1_tail

axpy1_done:
	VZEROUPPER
	RET

// func dot4x4AVX2(g0, g1, g2, g3, p0, p1, p2, p3 []float64, s *[16]float64)
//
// s[4c+q] = Σ_t gc[t]*pq[t] over t in [0, len(g0)), each sum one accumulator
// from +0 in ascending t. The p slices and g1..g3 must be at least len(g0)
// long. Y0..Y3 hold the sixteen accumulators (Yc lane q is s[4c+q]); each
// step of four t loads four p rows, transposes them so lane q of Tu is
// pq[t+u], and adds gc[t+u]*Tu into Yc in order u = 0..3.
TEXT ·dot4x4AVX2(SB), NOSPLIT, $0-200
	MOVQ g0_base+0(FP), SI
	MOVQ g0_len+8(FP), CX
	MOVQ g1_base+24(FP), DI
	MOVQ g2_base+48(FP), R8
	MOVQ g3_base+72(FP), R9
	MOVQ p0_base+96(FP), R10
	MOVQ p1_base+120(FP), R11
	MOVQ p2_base+144(FP), R12
	MOVQ p3_base+168(FP), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   dot_tail

dot_quad:
	VMOVUPD (R10)(AX*8), Y4
	VMOVUPD (R11)(AX*8), Y5
	VMOVUPD (R12)(AX*8), Y6
	VMOVUPD (R13)(AX*8), Y7
	VUNPCKLPD Y5, Y4, Y8
	VUNPCKHPD Y5, Y4, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7

	VBROADCASTSD (SI)(AX*8), Y12
	VBROADCASTSD (DI)(AX*8), Y13
	VBROADCASTSD (R8)(AX*8), Y14
	VBROADCASTSD (R9)(AX*8), Y15
	VMULPD Y4, Y12, Y12
	VMULPD Y4, Y13, Y13
	VMULPD Y4, Y14, Y14
	VMULPD Y4, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	VBROADCASTSD 8(SI)(AX*8), Y12
	VBROADCASTSD 8(DI)(AX*8), Y13
	VBROADCASTSD 8(R8)(AX*8), Y14
	VBROADCASTSD 8(R9)(AX*8), Y15
	VMULPD Y5, Y12, Y12
	VMULPD Y5, Y13, Y13
	VMULPD Y5, Y14, Y14
	VMULPD Y5, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	VBROADCASTSD 16(SI)(AX*8), Y12
	VBROADCASTSD 16(DI)(AX*8), Y13
	VBROADCASTSD 16(R8)(AX*8), Y14
	VBROADCASTSD 16(R9)(AX*8), Y15
	VMULPD Y6, Y12, Y12
	VMULPD Y6, Y13, Y13
	VMULPD Y6, Y14, Y14
	VMULPD Y6, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	VBROADCASTSD 24(SI)(AX*8), Y12
	VBROADCASTSD 24(DI)(AX*8), Y13
	VBROADCASTSD 24(R8)(AX*8), Y14
	VBROADCASTSD 24(R9)(AX*8), Y15
	VMULPD Y7, Y12, Y12
	VMULPD Y7, Y13, Y13
	VMULPD Y7, Y14, Y14
	VMULPD Y7, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	ADDQ $4, AX
	CMPQ AX, BX
	JLT  dot_quad

dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD (R10)(AX*8), X4
	VMOVHPD (R11)(AX*8), X4, X4
	VMOVSD (R12)(AX*8), X5
	VMOVHPD (R13)(AX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VBROADCASTSD (SI)(AX*8), Y12
	VBROADCASTSD (DI)(AX*8), Y13
	VBROADCASTSD (R8)(AX*8), Y14
	VBROADCASTSD (R9)(AX*8), Y15
	VMULPD Y4, Y12, Y12
	VMULPD Y4, Y13, Y13
	VMULPD Y4, Y14, Y14
	VMULPD Y4, Y15, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	INCQ AX
	JMP  dot_tail

dot_done:
	MOVQ s+192(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET
