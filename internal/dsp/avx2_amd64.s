#include "textflag.h"

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

// func filterBlocksAVX2(dst, h, x []float64)
//
// Each block of 16 outputs lives in Y0–Y3. For k ascending, Y4 holds h[k]
// and each accumulator adds h[k]·x[i+len(h)−1−k …+3]: one VMULPD, one
// VADDPD, the scalar kernel's MULSD/ADDSD in every lane.
TEXT ·filterBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ h_base+24(FP), DX
	MOVQ h_len+32(FP), R8
	MOVQ x_base+48(FP), SI
	SHRQ $4, CX
	JZ   done
	LEAQ -8(SI)(R8*8), SI // &x[len(h)-1]: tap 0 of output 0

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, BX
	XORQ   AX, AX

tap:
	VBROADCASTSD (DX)(AX*8), Y4
	VMULPD       0(BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	SUBQ         $8, BX
	INCQ         AX
	CMPQ         AX, R8
	JNE          tap

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	RET

// The radix-4 stage kernels below walk one block of four quarters at a
// time, four butterflies per pass. For the quarter length l (bytes L =
// 8l in CX, 3L in DX), A, B, C and D of a plane sit at (p), (p)(CX*1),
// (p)(CX*2) and (p)(DX*1) from the plane pointer p (DI for re, SI for
// im), and the six twiddle planes at (R8…R13)(BX*1), BX the byte offset
// into the quarter. Every lane runs the scalar loop body's operations in
// its order: one VMULPD, VADDPD or VSUBPD per scalar operation.

// func radix4StageFwdAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)
TEXT ·radix4StageFwdAVX2(SB), NOSPLIT, $0-192
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), AX
	MOVQ im_base+24(FP), SI
	MOVQ w1r_base+48(FP), R8
	MOVQ w1r_len+56(FP), CX
	MOVQ w1i_base+72(FP), R9
	MOVQ w2r_base+96(FP), R10
	MOVQ w2i_base+120(FP), R11
	MOVQ w3r_base+144(FP), R12
	MOVQ w3i_base+168(FP), R13
	LEAQ (DI)(AX*8), AX        // end of re
	SHLQ $3, CX                // L
	LEAQ (CX)(CX*2), DX        // 3L
	CMPQ DI, AX
	JEQ  fwdDone

fwdBlock:
	XORQ BX, BX

fwdLoop:
	// brk, bik = b·w¹ in Y2, Y3
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (R8)(BX*1), Y14
	VMOVUPD (R9)(BX*1), Y15
	VMULPD  Y14, Y0, Y2
	VMULPD  Y15, Y1, Y3
	VSUBPD  Y3, Y2, Y2         // br·w1r − bi·w1i
	VMULPD  Y15, Y0, Y3
	VMULPD  Y14, Y1, Y1
	VADDPD  Y1, Y3, Y3         // br·w1i + bi·w1r

	// crk, cik = c·w² in Y4, Y5
	VMOVUPD (DI)(CX*2), Y0
	VMOVUPD (SI)(CX*2), Y1
	VMOVUPD (R10)(BX*1), Y14
	VMOVUPD (R11)(BX*1), Y15
	VMULPD  Y14, Y0, Y4
	VMULPD  Y15, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y15, Y0, Y5
	VMULPD  Y14, Y1, Y1
	VADDPD  Y1, Y5, Y5

	// drk, dik = d·w³ in Y6, Y7
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD (SI)(DX*1), Y1
	VMOVUPD (R12)(BX*1), Y14
	VMOVUPD (R13)(BX*1), Y15
	VMULPD  Y14, Y0, Y6
	VMULPD  Y15, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y15, Y0, Y7
	VMULPD  Y14, Y1, Y1
	VADDPD  Y1, Y7, Y7

	VMOVUPD (DI), Y8           // ar
	VMOVUPD (SI), Y9           // ai
	VADDPD  Y4, Y8, Y10        // t0r = ar + crk
	VSUBPD  Y4, Y8, Y8         // t1r = ar − crk
	VADDPD  Y5, Y9, Y11        // t0i
	VSUBPD  Y5, Y9, Y9         // t1i
	VADDPD  Y6, Y2, Y12        // t2r = brk + drk
	VSUBPD  Y6, Y2, Y2         // t3r = brk − drk
	VADDPD  Y7, Y3, Y13        // t2i
	VSUBPD  Y7, Y3, Y3         // t3i

	VADDPD  Y12, Y10, Y0       // t0r + t2r
	VADDPD  Y13, Y11, Y1       // t0i + t2i
	VADDPD  Y3, Y8, Y4         // t1r + t3i
	VSUBPD  Y2, Y9, Y5         // t1i − t3r
	VSUBPD  Y12, Y10, Y6       // t0r − t2r
	VSUBPD  Y13, Y11, Y7       // t0i − t2i
	VSUBPD  Y3, Y8, Y14        // t1r − t3i
	VADDPD  Y2, Y9, Y15        // t1i + t3r
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VMOVUPD Y4, (DI)(CX*1)
	VMOVUPD Y5, (SI)(CX*1)
	VMOVUPD Y6, (DI)(CX*2)
	VMOVUPD Y7, (SI)(CX*2)
	VMOVUPD Y14, (DI)(DX*1)
	VMOVUPD Y15, (SI)(DX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	CMPQ BX, CX
	JNE  fwdLoop
	ADDQ DX, DI                // past B, C and D to the next block
	ADDQ DX, SI
	CMPQ DI, AX
	JNE  fwdBlock

fwdDone:
	VZEROUPPER
	RET

// func radix4StageInvAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)
TEXT ·radix4StageInvAVX2(SB), NOSPLIT, $0-192
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), AX
	MOVQ im_base+24(FP), SI
	MOVQ w1r_base+48(FP), R8
	MOVQ w1r_len+56(FP), CX
	MOVQ w1i_base+72(FP), R9
	MOVQ w2r_base+96(FP), R10
	MOVQ w2i_base+120(FP), R11
	MOVQ w3r_base+144(FP), R12
	MOVQ w3i_base+168(FP), R13
	LEAQ (DI)(AX*8), AX
	SHLQ $3, CX
	LEAQ (CX)(CX*2), DX
	CMPQ DI, AX
	JEQ  invDone

invBlock:
	XORQ BX, BX

invLoop:
	// brk, bik = b·conj(w¹) in Y2, Y3
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (R8)(BX*1), Y14
	VMOVUPD (R9)(BX*1), Y15
	VMULPD  Y14, Y0, Y2
	VMULPD  Y15, Y1, Y3
	VADDPD  Y3, Y2, Y2         // br·w1r + bi·w1i
	VMULPD  Y14, Y1, Y3
	VMULPD  Y15, Y0, Y0
	VSUBPD  Y0, Y3, Y3         // bi·w1r − br·w1i

	VMOVUPD (DI)(CX*2), Y0
	VMOVUPD (SI)(CX*2), Y1
	VMOVUPD (R10)(BX*1), Y14
	VMOVUPD (R11)(BX*1), Y15
	VMULPD  Y14, Y0, Y4
	VMULPD  Y15, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y14, Y1, Y5
	VMULPD  Y15, Y0, Y0
	VSUBPD  Y0, Y5, Y5

	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD (SI)(DX*1), Y1
	VMOVUPD (R12)(BX*1), Y14
	VMOVUPD (R13)(BX*1), Y15
	VMULPD  Y14, Y0, Y6
	VMULPD  Y15, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y14, Y1, Y7
	VMULPD  Y15, Y0, Y0
	VSUBPD  Y0, Y7, Y7

	VMOVUPD (DI), Y8
	VMOVUPD (SI), Y9
	VADDPD  Y4, Y8, Y10        // t0r
	VSUBPD  Y4, Y8, Y8         // t1r
	VADDPD  Y5, Y9, Y11        // t0i
	VSUBPD  Y5, Y9, Y9         // t1i
	VADDPD  Y6, Y2, Y12        // t2r
	VSUBPD  Y6, Y2, Y2         // t3r
	VADDPD  Y7, Y3, Y13        // t2i
	VSUBPD  Y7, Y3, Y3         // t3i

	VADDPD  Y12, Y10, Y0       // t0r + t2r
	VADDPD  Y13, Y11, Y1       // t0i + t2i
	VSUBPD  Y3, Y8, Y4         // t1r − t3i
	VADDPD  Y2, Y9, Y5         // t1i + t3r
	VSUBPD  Y12, Y10, Y6       // t0r − t2r
	VSUBPD  Y13, Y11, Y7       // t0i − t2i
	VADDPD  Y3, Y8, Y14        // t1r + t3i
	VSUBPD  Y2, Y9, Y15        // t1i − t3r
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VMOVUPD Y4, (DI)(CX*1)
	VMOVUPD Y5, (SI)(CX*1)
	VMOVUPD Y6, (DI)(CX*2)
	VMOVUPD Y7, (SI)(CX*2)
	VMOVUPD Y14, (DI)(DX*1)
	VMOVUPD Y15, (SI)(DX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	CMPQ BX, CX
	JNE  invLoop
	ADDQ DX, DI
	ADDQ DX, SI
	CMPQ DI, AX
	JNE  invBlock

invDone:
	VZEROUPPER
	RET

// func dif4StageAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)
TEXT ·dif4StageAVX2(SB), NOSPLIT, $0-192
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), AX
	MOVQ im_base+24(FP), SI
	MOVQ w1r_base+48(FP), R8
	MOVQ w1r_len+56(FP), CX
	MOVQ w1i_base+72(FP), R9
	MOVQ w2r_base+96(FP), R10
	MOVQ w2i_base+120(FP), R11
	MOVQ w3r_base+144(FP), R12
	MOVQ w3i_base+168(FP), R13
	LEAQ (DI)(AX*8), AX
	SHLQ $3, CX
	LEAQ (CX)(CX*2), DX
	CMPQ DI, AX
	JEQ  difDone

difBlock:
	XORQ BX, BX

difLoop:
	VMOVUPD (DI), Y0           // ar
	VMOVUPD (SI), Y1           // ai
	VMOVUPD (DI)(CX*1), Y2     // br
	VMOVUPD (SI)(CX*1), Y3     // bi
	VMOVUPD (DI)(CX*2), Y4     // cr
	VMOVUPD (SI)(CX*2), Y5     // ci
	VMOVUPD (DI)(DX*1), Y6     // dr
	VMOVUPD (SI)(DX*1), Y7     // di
	VADDPD  Y4, Y0, Y8         // t0r = ar + cr
	VADDPD  Y5, Y1, Y9         // t0i
	VSUBPD  Y4, Y0, Y0         // t1r = ar − cr
	VSUBPD  Y5, Y1, Y1         // t1i
	VADDPD  Y6, Y2, Y10        // t2r = br + dr
	VADDPD  Y7, Y3, Y11        // t2i
	VSUBPD  Y6, Y2, Y2         // t3r = br − dr
	VSUBPD  Y7, Y3, Y3         // t3i

	VADDPD  Y10, Y8, Y4        // t0r + t2r
	VADDPD  Y11, Y9, Y5        // t0i + t2i
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (SI)

	// B' = (t1 − j·t3)·w¹
	VADDPD  Y3, Y0, Y4         // vr = t1r + t3i
	VSUBPD  Y2, Y1, Y5         // vi = t1i − t3r
	VMOVUPD (R8)(BX*1), Y14
	VMOVUPD (R9)(BX*1), Y15
	VMULPD  Y14, Y4, Y6
	VMULPD  Y15, Y5, Y7
	VSUBPD  Y7, Y6, Y6         // vr·w1r − vi·w1i
	VMULPD  Y15, Y4, Y12
	VMULPD  Y14, Y5, Y13
	VADDPD  Y13, Y12, Y12      // vr·w1i + vi·w1r
	VMOVUPD Y6, (DI)(CX*1)
	VMOVUPD Y12, (SI)(CX*1)

	// C' = (t0 − t2)·w²
	VSUBPD  Y10, Y8, Y4        // ur = t0r − t2r
	VSUBPD  Y11, Y9, Y5        // ui = t0i − t2i
	VMOVUPD (R10)(BX*1), Y14
	VMOVUPD (R11)(BX*1), Y15
	VMULPD  Y14, Y4, Y6
	VMULPD  Y15, Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y15, Y4, Y12
	VMULPD  Y14, Y5, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y6, (DI)(CX*2)
	VMOVUPD Y12, (SI)(CX*2)

	// D' = (t1 + j·t3)·w³
	VSUBPD  Y3, Y0, Y4         // zr = t1r − t3i
	VADDPD  Y2, Y1, Y5         // zi = t1i + t3r
	VMOVUPD (R12)(BX*1), Y14
	VMOVUPD (R13)(BX*1), Y15
	VMULPD  Y14, Y4, Y6
	VMULPD  Y15, Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y15, Y4, Y12
	VMULPD  Y14, Y5, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y6, (DI)(DX*1)
	VMOVUPD Y12, (SI)(DX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	CMPQ BX, CX
	JNE  difLoop
	ADDQ DX, DI
	ADDQ DX, SI
	CMPQ DI, AX
	JNE  difBlock

difDone:
	VZEROUPPER
	RET

// func radix4FirstAVX2(re, im []float64, inverse bool)
//
// Four butterflies per pass. Each plane's 16 values are transposed so
// that Y registers hold a, b, c and d of the four butterflies: the loads
// pair two-value halves across 128-bit lanes, VUNPCKLPD/VUNPCKHPD finish
// the transpose, and the stores undo it the same way.
TEXT ·radix4FirstAVX2(SB), NOSPLIT, $0-49
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), AX
	MOVQ im_base+24(FP), SI
	MOVB inverse+48(FP), R8
	LEAQ (DI)(AX*8), AX
	CMPQ DI, AX
	JEQ  firstDone

firstLoop:
	VMOVUPD     0(DI), X0
	VINSERTF128 $1, 64(DI), Y0, Y0   // a0 b0 | a2 b2
	VMOVUPD     32(DI), X1
	VINSERTF128 $1, 96(DI), Y1, Y1   // a1 b1 | a3 b3
	VMOVUPD     16(DI), X2
	VINSERTF128 $1, 80(DI), Y2, Y2   // c0 d0 | c2 d2
	VMOVUPD     48(DI), X3
	VINSERTF128 $1, 112(DI), Y3, Y3  // c1 d1 | c3 d3
	VUNPCKLPD   Y1, Y0, Y4           // ar
	VUNPCKHPD   Y1, Y0, Y5           // br
	VUNPCKLPD   Y3, Y2, Y6           // cr
	VUNPCKHPD   Y3, Y2, Y7           // dr
	VMOVUPD     0(SI), X0
	VINSERTF128 $1, 64(SI), Y0, Y0
	VMOVUPD     32(SI), X1
	VINSERTF128 $1, 96(SI), Y1, Y1
	VMOVUPD     16(SI), X2
	VINSERTF128 $1, 80(SI), Y2, Y2
	VMOVUPD     48(SI), X3
	VINSERTF128 $1, 112(SI), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y8           // ai
	VUNPCKHPD   Y1, Y0, Y9           // bi
	VUNPCKLPD   Y3, Y2, Y10          // ci
	VUNPCKHPD   Y3, Y2, Y11          // di

	VADDPD Y6, Y4, Y0                // t0r = ar + cr
	VSUBPD Y6, Y4, Y4                // t1r = ar − cr
	VADDPD Y7, Y5, Y1                // t2r = br + dr
	VSUBPD Y7, Y5, Y5                // t3r = br − dr
	VADDPD Y10, Y8, Y2               // t0i
	VSUBPD Y10, Y8, Y8               // t1i
	VADDPD Y11, Y9, Y3               // t2i
	VSUBPD Y11, Y9, Y9               // t3i

	VADDPD Y1, Y0, Y6                // a'r = t0r + t2r
	VSUBPD Y1, Y0, Y7                // c'r = t0r − t2r
	VADDPD Y3, Y2, Y10               // a'i
	VSUBPD Y3, Y2, Y11               // c'i
	VADDPD Y9, Y4, Y12               // t1r + t3i
	VSUBPD Y5, Y8, Y13               // t1i − t3r
	VSUBPD Y9, Y4, Y14               // t1r − t3i
	VADDPD Y5, Y8, Y15               // t1i + t3r
	TESTB  R8, R8
	JZ     firstStore
	// The inverse rotates by +j: b' and d' trade places.
	VMOVAPD Y12, Y0
	VMOVAPD Y14, Y12
	VMOVAPD Y0, Y14
	VMOVAPD Y13, Y0
	VMOVAPD Y15, Y13
	VMOVAPD Y0, Y15

firstStore:
	// b'r b'i d'r d'i in Y12 Y13 Y14 Y15
	VUNPCKLPD    Y12, Y6, Y0         // a0 b0 | a2 b2
	VUNPCKHPD    Y12, Y6, Y1         // a1 b1 | a3 b3
	VUNPCKLPD    Y14, Y7, Y2         // c0 d0 | c2 d2
	VUNPCKHPD    Y14, Y7, Y3         // c1 d1 | c3 d3
	VMOVUPD      X0, 0(DI)
	VMOVUPD      X2, 16(DI)
	VMOVUPD      X1, 32(DI)
	VMOVUPD      X3, 48(DI)
	VEXTRACTF128 $1, Y0, 64(DI)
	VEXTRACTF128 $1, Y2, 80(DI)
	VEXTRACTF128 $1, Y1, 96(DI)
	VEXTRACTF128 $1, Y3, 112(DI)
	VUNPCKLPD    Y13, Y10, Y0
	VUNPCKHPD    Y13, Y10, Y1
	VUNPCKLPD    Y15, Y11, Y2
	VUNPCKHPD    Y15, Y11, Y3
	VMOVUPD      X0, 0(SI)
	VMOVUPD      X2, 16(SI)
	VMOVUPD      X1, 32(SI)
	VMOVUPD      X3, 48(SI)
	VEXTRACTF128 $1, Y0, 64(SI)
	VEXTRACTF128 $1, Y2, 80(SI)
	VEXTRACTF128 $1, Y1, 96(SI)
	VEXTRACTF128 $1, Y3, 112(SI)

	ADDQ $128, DI
	ADDQ $128, SI
	CMPQ DI, AX
	JNE  firstLoop

firstDone:
	VZEROUPPER
	RET

// func normalizeAVX2(r, lo, hi []float64, eh, eps float64)
//
// r[k] = 0 where sqrt((hi[k]−lo[k])·eh) < eps, else r[k] / that root:
// the compare is ordered, so a NaN root divides as in the Go loop.
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-88
	MOVQ         r_base+0(FP), DI
	MOVQ         r_len+8(FP), CX
	MOVQ         lo_base+24(FP), SI
	MOVQ         hi_base+48(FP), DX
	VBROADCASTSD eh+72(FP), Y14
	VBROADCASTSD eps+80(FP), Y15
	VXORPD       Y13, Y13, Y13
	SHLQ         $3, CX
	XORQ         BX, BX
	CMPQ         BX, CX
	JEQ          normDone

normLoop:
	VMOVUPD   (DX)(BX*1), Y0
	VSUBPD    (SI)(BX*1), Y0, Y0   // ex = hi − lo
	VMULPD    Y14, Y0, Y0          // ex·eh
	VSQRTPD   Y0, Y0               // den
	VCMPPD    $0x11, Y15, Y0, Y1   // den < eps, false for NaN (LT_OQ)
	VMOVUPD   (DI)(BX*1), Y2
	VDIVPD    Y0, Y2, Y2           // r / den
	VBLENDVPD Y1, Y13, Y2, Y2      // +0 where den < eps
	VMOVUPD   Y2, (DI)(BX*1)
	ADDQ      $32, BX
	CMPQ      BX, CX
	JNE       normLoop

normDone:
	VZEROUPPER
	RET

// func interleaveScaledAVX2(dst, zre, zim []float64, s float64)
//
// dst[2j], dst[2j+1] = zre[j]·s, zim[j]·s, four j per pass.
TEXT ·interleaveScaledAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         zre_base+24(FP), SI
	MOVQ         zre_len+32(FP), CX
	MOVQ         zim_base+48(FP), DX
	VBROADCASTSD s+72(FP), Y15
	SHLQ         $3, CX
	XORQ         BX, BX
	CMPQ         BX, CX
	JEQ          ilvDone

ilvLoop:
	VMOVUPD    (SI)(BX*1), Y0
	VMOVUPD    (DX)(BX*1), Y1
	VMULPD     Y15, Y0, Y0          // zre·s
	VMULPD     Y15, Y1, Y1          // zim·s
	VUNPCKLPD  Y1, Y0, Y2           // r0 i0 | r2 i2
	VUNPCKHPD  Y1, Y0, Y3           // r1 i1 | r3 i3
	VPERM2F128 $0x20, Y3, Y2, Y4    // r0 i0 r1 i1
	VPERM2F128 $0x31, Y3, Y2, Y5    // r2 i2 r3 i3
	VMOVUPD    Y4, (DI)
	VMOVUPD    Y5, 32(DI)
	ADDQ       $64, DI
	ADDQ       $32, BX
	CMPQ       BX, CX
	JNE        ilvLoop

ilvDone:
	VZEROUPPER
	RET

// func foldPairsAVX2(dzre, dzim, zre, zim []float64, ia, ib []int32, wre, wim, are, aim, bre, bim []float64)
//
// foldSpecMulTo's pair loop, four pairs per pass: VGATHERDPD reads both
// sides of each pair, every lane runs the scalar loop body, and the
// results are stored one value at a time to positions ia[p] and ib[p].
// Each position belongs to one pair, so dst may alias src.
TEXT ·foldPairsAVX2(SB), NOSPLIT, $0-288
	MOVQ     dzre_base+0(FP), R8
	MOVQ     dzim_base+24(FP), R9
	MOVQ     zre_base+48(FP), SI
	MOVQ     zim_base+72(FP), DI
	MOVQ     ia_base+96(FP), R10
	MOVQ     ia_len+104(FP), DX
	MOVQ     ib_base+120(FP), R11
	MOVQ     $0x3fe0000000000000, AX // 0.5
	MOVQ     AX, X14
	VBROADCASTSD X14, Y14
	VPCMPEQD Y15, Y15, Y15           // gather mask: every lane
	XORQ     CX, CX
	CMPQ     CX, DX
	JEQ      foldDone

foldLoop:
	VMOVDQU    (R10)(CX*4), X12      // ia[p…p+3]
	VMOVDQU    (R11)(CX*4), X13      // ib[p…p+3]
	VMOVDQA    Y15, Y0
	VGATHERDPD Y0, (SI)(X12*8), Y1   // zar
	VMOVDQA    Y15, Y0
	VGATHERDPD Y0, (DI)(X12*8), Y2   // zai
	VMOVDQA    Y15, Y0
	VGATHERDPD Y0, (SI)(X13*8), Y3   // zbr
	VMOVDQA    Y15, Y0
	VGATHERDPD Y0, (DI)(X13*8), Y4   // zbi

	VADDPD Y3, Y1, Y5
	VMULPD Y14, Y5, Y5               // er = (zar+zbr)·0.5
	VSUBPD Y4, Y2, Y6
	VMULPD Y14, Y6, Y6               // ei = (zai−zbi)·0.5
	VADDPD Y4, Y2, Y7
	VMULPD Y14, Y7, Y7               // or = (zai+zbi)·0.5
	VSUBPD Y1, Y3, Y8
	VMULPD Y14, Y8, Y8               // oi = (zbr−zar)·0.5

	MOVQ    wre_base+144(FP), AX
	VMOVUPD (AX)(CX*8), Y9           // wre
	MOVQ    wim_base+168(FP), AX
	VMOVUPD (AX)(CX*8), Y10          // wim
	VMULPD  Y7, Y9, Y1
	VMULPD  Y8, Y10, Y2
	VSUBPD  Y2, Y1, Y1               // tr = wre·or − wim·oi
	VMULPD  Y8, Y9, Y2
	VMULPD  Y7, Y10, Y3
	VADDPD  Y3, Y2, Y2               // ti = wre·oi + wim·or
	VADDPD  Y1, Y5, Y3               // xar = er + tr
	VADDPD  Y2, Y6, Y4               // xai = ei + ti
	VSUBPD  Y1, Y5, Y5               // xbr = er − tr
	VSUBPD  Y6, Y2, Y6               // xbi = ti − ei

	MOVQ    are_base+192(FP), AX
	VMOVUPD (AX)(CX*8), Y11          // are
	MOVQ    aim_base+216(FP), AX
	VMOVUPD (AX)(CX*8), Y12          // aim
	VMULPD  Y11, Y3, Y1
	VMULPD  Y12, Y4, Y2
	VSUBPD  Y2, Y1, Y1               // yar = xar·are − xai·aim
	VMULPD  Y12, Y3, Y2
	VMULPD  Y11, Y4, Y7
	VADDPD  Y7, Y2, Y2               // yai = xar·aim + xai·are
	MOVQ    bre_base+240(FP), AX
	VMOVUPD (AX)(CX*8), Y11          // bre
	MOVQ    bim_base+264(FP), AX
	VMOVUPD (AX)(CX*8), Y12          // bim
	VMULPD  Y11, Y5, Y3
	VMULPD  Y12, Y6, Y4
	VSUBPD  Y4, Y3, Y3               // ybr = xbr·bre − xbi·bim
	VMULPD  Y12, Y5, Y4
	VMULPD  Y11, Y6, Y7
	VADDPD  Y7, Y4, Y4               // ybi = xbr·bim + xbi·bre

	VADDPD Y3, Y1, Y5
	VMULPD Y14, Y5, Y5               // er = (yar+ybr)·0.5
	VSUBPD Y4, Y2, Y6
	VMULPD Y14, Y6, Y6               // ei = (yai−ybi)·0.5
	VSUBPD Y3, Y1, Y7
	VMULPD Y14, Y7, Y7               // sr = (yar−ybr)·0.5
	VADDPD Y4, Y2, Y8
	VMULPD Y14, Y8, Y8               // si = (yai+ybi)·0.5
	VMULPD Y9, Y7, Y1
	VMULPD Y10, Y8, Y2
	VADDPD Y2, Y1, Y1                // or = sr·wre + si·wim
	VMULPD Y9, Y8, Y2
	VMULPD Y10, Y7, Y3
	VSUBPD Y3, Y2, Y2                // oi = si·wre − sr·wim
	VSUBPD Y2, Y5, Y3                // dzre[i] = er − oi
	VADDPD Y1, Y6, Y4                // dzim[i] = ei + or
	VADDPD Y2, Y5, Y7                // dzre[j] = er + oi
	VSUBPD Y6, Y1, Y8                // dzim[j] = or − ei

	MOVLQSX (R10)(CX*4), AX
	MOVLQSX 4(R10)(CX*4), BX
	VMOVSD  X3, (R8)(AX*8)
	VMOVSD  X4, (R9)(AX*8)
	VMOVHPD X3, (R8)(BX*8)
	VMOVHPD X4, (R9)(BX*8)
	MOVLQSX (R11)(CX*4), AX
	MOVLQSX 4(R11)(CX*4), BX
	VMOVSD  X7, (R8)(AX*8)
	VMOVSD  X8, (R9)(AX*8)
	VMOVHPD X7, (R8)(BX*8)
	VMOVHPD X8, (R9)(BX*8)
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y7, X7
	VEXTRACTF128 $1, Y8, X8
	MOVLQSX 8(R10)(CX*4), AX
	MOVLQSX 12(R10)(CX*4), BX
	VMOVSD  X3, (R8)(AX*8)
	VMOVSD  X4, (R9)(AX*8)
	VMOVHPD X3, (R8)(BX*8)
	VMOVHPD X4, (R9)(BX*8)
	MOVLQSX 8(R11)(CX*4), AX
	MOVLQSX 12(R11)(CX*4), BX
	VMOVSD  X7, (R8)(AX*8)
	VMOVSD  X8, (R9)(AX*8)
	VMOVHPD X7, (R8)(BX*8)
	VMOVHPD X8, (R9)(BX*8)

	ADDQ $4, CX
	CMPQ CX, DX
	JNE  foldLoop

foldDone:
	VZEROUPPER
	RET
