//go:build !purego

#include "textflag.h"

// The kernels below perform the floating-point operations of dot32Generic
// and dotGeneric in the same order, so every result is bit-identical to
// the Go loop's. Each accumulator of the Go loop is one lane of Y0; a step
// is a multiply then an add (never FMA, which would round once where the
// Go loop rounds twice). A VEX.128 scalar op zeroes the upper half of its
// destination, so the upper lanes are saved before the scalar tail.

// func dot32AVX2(a, b []float32) float32
TEXT ·dot32AVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0

	// Four steps per iteration: the loads and multiplies are independent,
	// the adds into Y0 stay in order.
loop32:
	CMPQ CX, $32
	JLT  loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  (DI), Y1, Y1
	VMULPS  32(DI), Y2, Y2
	VMULPS  64(DI), Y3, Y3
	VMULPS  96(DI), Y4, Y4
	VADDPS  Y1, Y0, Y0
	VADDPS  Y2, Y0, Y0
	VADDPS  Y3, Y0, Y0
	VADDPS  Y4, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ CX, $8
	JLT  tail
	VMOVUPS (SI), Y1
	VMULPS  (DI), Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	// X2 = s4..s7; X0 keeps s0..s3.
	VEXTRACTF128 $1, Y0, X2
	TESTQ        CX, CX
	JEQ          reduce

tail1:
	// s0 += a[i]*b[i]
	VMOVSS (SI), X1
	VMULSS (DI), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    tail1

reduce:
	// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))
	VHADDPS X2, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS  X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotAVX2(a, b []float32) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0

	// Two steps per iteration, adds into Y0 in order.
loop8:
	CMPQ      CX, $8
	JLT       loop4
	VCVTPS2PD (SI), Y1
	VCVTPS2PD 16(SI), Y2
	VCVTPS2PD (DI), Y3
	VCVTPS2PD 16(DI), Y4
	VMULPD    Y3, Y1, Y1
	VMULPD    Y4, Y2, Y2
	VADDPD    Y1, Y0, Y0
	VADDPD    Y2, Y0, Y0
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JMP       loop8

loop4:
	CMPQ      CX, $4
	JLT       tail
	VCVTPS2PD (SI), Y1
	VCVTPS2PD (DI), Y3
	VMULPD    Y3, Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DI
	SUBQ      $4, CX
	JMP       loop4

tail:
	// X2 = s2, s3; X0 keeps s0, s1.
	VEXTRACTF128 $1, Y0, X2
	TESTQ        CX, CX
	JEQ          reduce

tail1:
	// s0 += float64(a[i]) * float64(b[i])
	VCVTSS2SD (SI), X1, X1
	VCVTSS2SD (DI), X3, X3
	VMULSD    X3, X1, X1
	VADDSD    X1, X0, X0
	ADDQ      $4, SI
	ADDQ      $4, DI
	DECQ      CX
	JNZ       tail1

reduce:
	// ((s0+s1)+s2)+s3
	VUNPCKHPD X0, X0, X1
	VADDSD    X1, X0, X0
	VADDSD    X2, X0, X0
	VUNPCKHPD X2, X2, X1
	VADDSD    X1, X0, X0
	VMOVSD    X0, ret+48(FP)
	VZEROUPPER
	RET

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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
