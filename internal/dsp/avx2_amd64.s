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
