#include "textflag.h"

// func scan8AVX2(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int) uint
//
// Y0, Y1 hold μ of lanes 0–3 and 4–7, Y2, Y3 σ² of the same lanes; Y8 is
// wt and Y9 wt·wt in every element. Each slot adds one product to each
// accumulator, oldest slot first, so every lane is one chain of scalar
// adds in scan4's order.
TEXT ·scan8AVX2(SB), NOSPLIT, $0-112
	MOVQ    mu+0(FP), AX
	MOVQ    sigma2+8(FP), BX
	MOVQ    least+16(FP), R10
	MOVSD   wt+24(FP), X8
	MOVQ    mean_base+32(FP), SI
	MOVQ    mean_len+40(FP), CX
	MOVQ    varr_base+56(FP), DI
	MOVQ    ns_base+80(FP), R8
	VMULSD  X8, X8, X9
	VBROADCASTSD X8, Y8
	VBROADCASTSD X9, Y9
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 0(BX), Y2
	VMOVUPD 32(BX), Y3
	XORQ    DX, DX
	TESTQ   CX, CX
	JEQ     done

loop:
	VBROADCASTSD (SI)(DX*8), Y4
	VMULPD  Y8, Y4, Y4
	VBROADCASTSD (DI)(DX*8), Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y4, Y1, Y1
	VADDPD  Y5, Y2, Y2
	VADDPD  Y5, Y3, Y3
	MOVQ    (R8)(DX*8), R9
	DECQ    R9
	CMPQ    R9, R10
	CMOVQCS R9, R10       // unsigned n-1 below least: take it
	INCQ    DX
	CMPQ    DX, CX
	JNE     loop

done:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 0(BX)
	VMOVUPD Y3, 32(BX)
	VZEROUPPER
	MOVQ    R10, ret+104(FP)
	RET

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	XORL    AX, AX
	XORL    CX, CX
	CPUID                 // leaf 0: the highest leaf in EAX
	CMPL    AX, $7
	JLT     no
	MOVL    $1, AX
	XORL    CX, CX
	CPUID                 // leaf 1: ECX bit 27 OSXSAVE, bit 28 AVX
	ANDL    $0x18000000, CX
	CMPL    CX, $0x18000000
	JNE     no
	XORL    CX, CX
	XGETBV                // XCR0: bit 1 SSE state, bit 2 AVX state
	ANDL    $6, AX
	CMPL    AX, $6
	JNE     no
	MOVL    $7, AX
	XORL    CX, CX
	CPUID                 // leaf 7 subleaf 0: EBX bit 5 AVX2
	ANDL    $0x20, BX
	JEQ     no
	MOVB    $1, ret+0(FP)
	RET

no:
	MOVB    $0, ret+0(FP)
	RET
