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

// The training kernels below are the float64 loops of train.go in AVX2,
// with the same contract: each lane is one independent chain of the Go
// loop's operations, in its order, and a multiply and an add are two
// roundings, never one FMA. Their callers pass lengths that are multiples
// of 4 and run the remainder in Go.

// func affine16AVX2(w, x, b, out []float64)
//
// Lane k of Y0..Y3 is the sum of row 4·g+k of the block (g = 0..3): it
// starts at b and adds W·x[i] in increasing i. SI, R10, R11 and R12 walk
// the four interleaved groups of w, 4·len(x) float64s apart.
TEXT ·affine16AVX2(SB), NOSPLIT, $0-96
	MOVQ    w_base+0(FP), SI
	MOVQ    x_base+24(FP), DI
	MOVQ    x_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	MOVQ    out_base+72(FP), R8
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ    CX, R9
	SHLQ    $5, R9
	LEAQ    (SI)(R9*1), R10
	LEAQ    (R10)(R9*1), R11
	LEAQ    (R11)(R9*1), R12
	TESTQ   CX, CX
	JEQ     affine16done

affine16loop:
	VBROADCASTSD (DI), Y4
	VMULPD       (SI), Y4, Y5
	VMULPD       (R10), Y4, Y6
	VMULPD       (R11), Y4, Y7
	VMULPD       (R12), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, DI
	ADDQ         $32, SI
	ADDQ         $32, R10
	ADDQ         $32, R11
	ADDQ         $32, R12
	DECQ         CX
	JNZ          affine16loop

affine16done:
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VZEROUPPER
	RET

// func addScaled4AVX2(x []float64, d0, d1, d2, d3 float64, r0, r1, r2, r3 []float64)
//
// Lanes run along i: r_k[i:i+4] += d_k·x[i:i+4], each element updated once.
TEXT ·addScaled4AVX2(SB), NOSPLIT, $0-152
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD d0+24(FP), Y0
	VBROADCASTSD d1+32(FP), Y1
	VBROADCASTSD d2+40(FP), Y2
	VBROADCASTSD d3+48(FP), Y3
	MOVQ         r0_base+56(FP), R8
	MOVQ         r1_base+80(FP), R9
	MOVQ         r2_base+104(FP), R10
	MOVQ         r3_base+128(FP), R11
	XORQ         AX, AX
	TESTQ        CX, CX
	JEQ          addScaled4done

addScaled4loop:
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y4, Y0, Y5
	VMULPD  Y4, Y1, Y6
	VMULPD  Y4, Y2, Y7
	VMULPD  Y4, Y3, Y8
	VADDPD  (R8)(AX*8), Y5, Y5
	VADDPD  (R9)(AX*8), Y6, Y6
	VADDPD  (R10)(AX*8), Y7, Y7
	VADDPD  (R11)(AX*8), Y8, Y8
	VMOVUPD Y5, (R8)(AX*8)
	VMOVUPD Y6, (R9)(AX*8)
	VMOVUPD Y7, (R10)(AX*8)
	VMOVUPD Y8, (R11)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     addScaled4loop

addScaled4done:
	VZEROUPPER
	RET

// func addScaledAVX2(x []float64, d float64, r []float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD d+24(FP), Y0
	MOVQ         r_base+32(FP), R8
	XORQ         AX, AX
	TESTQ        CX, CX
	JEQ          addScaleddone

addScaledloop:
	VMULPD  (SI)(AX*8), Y0, Y5
	VADDPD  (R8)(AX*8), Y5, Y5
	VMOVUPD Y5, (R8)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     addScaledloop

addScaleddone:
	VZEROUPPER
	RET

// func adamStepAVX2(p, m, v []float64, parts [][]float64, off int, c *AdamCoef)
//
// Lanes run along j. The gradient starts at +0 and adds the parts in
// order, then goes through Adam's expressions one rounded operation at a
// time; VDIVPD and VSQRTPD round correctly, as Go's / and math.Sqrt do.
// Y7..Y15 hold the coefficients; AX is the byte offset of j.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-112
	MOVQ         p_base+0(FP), SI
	MOVQ         p_len+8(FP), CX
	MOVQ         m_base+24(FP), DI
	MOVQ         v_base+48(FP), DX
	MOVQ         parts_base+72(FP), R8
	MOVQ         parts_len+80(FP), R9
	MOVQ         off+96(FP), R10
	SHLQ         $3, R10
	MOVQ         c+104(FP), R11
	VBROADCASTSD 0(R11), Y8   // Beta1
	VBROADCASTSD 8(R11), Y9   // Beta2
	VBROADCASTSD 16(R11), Y12 // C1
	VBROADCASTSD 24(R11), Y13 // C2
	VBROADCASTSD 32(R11), Y14 // LR
	VBROADCASTSD 40(R11), Y15 // Eps
	VBROADCASTSD 48(R11), Y7  // Inv

	// Y10 = 1 − Beta1 and Y11 = 1 − Beta2, rounded as Go's run-time
	// subtraction rounds them.
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X0
	VBROADCASTSD X0, Y0
	VSUBPD       Y8, Y0, Y10
	VSUBPD       Y9, Y0, Y11
	XORQ         AX, AX
	SHLQ         $3, CX
	TESTQ        CX, CX
	JEQ          adamdone

adamloop:
	// g = ((0 + parts[0]) + parts[1] + …)·Inv
	VXORPD Y0, Y0, Y0
	MOVQ   R8, BX
	MOVQ   R9, R12
	TESTQ  R12, R12
	JEQ    adamscale

adamparts:
	MOVQ   (BX), R13
	ADDQ   R10, R13
	VADDPD (R13)(AX*1), Y0, Y0
	ADDQ   $24, BX
	DECQ   R12
	JNZ    adamparts

adamscale:
	VMULPD Y7, Y0, Y0

	// m = Beta1·m + OneMinusBeta1·g
	VMULPD  (DI)(AX*1), Y8, Y1
	VMULPD  Y0, Y10, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)

	// v = Beta2·v + (OneMinusBeta2·g)·g
	VMULPD  (DX)(AX*1), Y9, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (DX)(AX*1)

	// p -= (LR·(m/C1)) / (√(v/C2) + Eps)
	VDIVPD  Y12, Y1, Y1
	VDIVPD  Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VMULPD  Y1, Y14, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (SI)(AX*1), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (SI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JLT  adamloop

adamdone:
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
