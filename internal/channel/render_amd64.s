#include "textflag.h"

// func renderBlocksAVX2(dst, sw []float64, rk *[kernelTaps]float64)
//
// Each block of 16 outputs is loaded from dst into Y0–Y3. For m = 0 … 32,
// Y4 holds rk[m] and each accumulator adds sw[i+m …+3]·rk[m]: one VMULPD,
// one VADDPD, the scalar kernel's MULSD/ADDSD in every lane.
TEXT ·renderBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ sw_base+24(FP), SI
	MOVQ rk+48(FP), DX
	SHRQ $4, CX
	JZ   done

block:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, BX
	XORQ    AX, AX

term:
	VBROADCASTSD (DX)(AX*8), Y4
	VMULPD       0(BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, BX
	INCQ         AX
	CMPQ         AX, $33
	JNE          term

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
