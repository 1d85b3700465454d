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

// func dot32x4AVX2(a, b0, b1, b2, b3 []float32, out *[4]float32)
//
// Four dot32AVX2 runs side by side: Y0..Y3 are the eight accumulators of
// a·b0 .. a·b3, each updated by exactly dot32AVX2's multiply-then-add per
// 8-lane step, tail into lane 0 and VHADDPS tree. Each block of a is
// loaded once for the four. AX is the byte offset into every slice.
TEXT ·dot32x4AVX2(SB), NOSPLIT, $0-128
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b0_base+24(FP), DI
	MOVQ   b1_base+48(FP), R8
	MOVQ   b2_base+72(FP), R9
	MOVQ   b3_base+96(FP), R10
	MOVQ   out+120(FP), R11
	XORQ   AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	// Two steps per iteration: every accumulator takes its first step's
	// add before its second's.
loop16:
	CMPQ    CX, $16
	JLT     step8
	VMOVUPS (SI)(AX*1), Y4
	VMOVUPS 32(SI)(AX*1), Y5
	VMULPS  (DI)(AX*1), Y4, Y6
	VMULPS  (R8)(AX*1), Y4, Y7
	VMULPS  (R9)(AX*1), Y4, Y8
	VMULPS  (R10)(AX*1), Y4, Y9
	VMULPS  32(DI)(AX*1), Y5, Y10
	VMULPS  32(R8)(AX*1), Y5, Y11
	VMULPS  32(R9)(AX*1), Y5, Y12
	VMULPS  32(R10)(AX*1), Y5, Y13
	VADDPS  Y6, Y0, Y0
	VADDPS  Y7, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y10, Y0, Y0
	VADDPS  Y11, Y1, Y1
	VADDPS  Y12, Y2, Y2
	VADDPS  Y13, Y3, Y3
	ADDQ    $64, AX
	SUBQ    $16, CX
	JMP     loop16

step8:
	// At most one step is left before the tail.
	CMPQ    CX, $8
	JLT     tail
	VMOVUPS (SI)(AX*1), Y4
	VMULPS  (DI)(AX*1), Y4, Y6
	VMULPS  (R8)(AX*1), Y4, Y7
	VMULPS  (R9)(AX*1), Y4, Y8
	VMULPS  (R10)(AX*1), Y4, Y9
	VADDPS  Y6, Y0, Y0
	VADDPS  Y7, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	ADDQ    $32, AX
	SUBQ    $8, CX

tail:
	// X8..X11 = s4..s7 of each accumulator; X0..X3 keep s0..s3.
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11
	TESTQ        CX, CX
	JEQ          reduce

tail1:
	// s0 += a[i]*bk[i] for each k
	VMOVSS (SI)(AX*1), X4
	VMULSS (DI)(AX*1), X4, X6
	VMULSS (R8)(AX*1), X4, X7
	VMULSS (R9)(AX*1), X4, X12
	VMULSS (R10)(AX*1), X4, X13
	VADDSS X6, X0, X0
	VADDSS X7, X1, X1
	VADDSS X12, X2, X2
	VADDSS X13, X3, X3
	ADDQ   $4, AX
	DECQ   CX
	JNZ    tail1

reduce:
	// ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) for each k
	VHADDPS X8, X0, X0
	VHADDPS X9, X1, X1
	VHADDPS X10, X2, X2
	VHADDPS X11, X3, X3
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VMOVSS  X0, (R11)
	VMOVSS  X1, 4(R11)
	VMOVSS  X2, 8(R11)
	VMOVSS  X3, 12(R11)
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

// func affine8x4AVX2(w []float64, x *[4][]float64, b []float64, out *[4][8]float64)
//
// Y(2s) and Y(2s+1) hold sample s's sums of rows 0–3 and 4–7: lane k of
// Y(2s+g) is row 4·g+k, which starts at b and adds W·x_s[i] in increasing
// i. Each step loads the two groups' weights at i once (Y8, Y9) and x_s[i]
// for the four samples (Y10..Y13), so the eight add chains are
// independent. SI and R12 walk the two interleaved groups of w, 4·len(x)
// float64s apart; AX is i.
TEXT ·affine8x4AVX2(SB), NOSPLIT, $0-64
	MOVQ    w_base+0(FP), SI
	MOVQ    x+24(FP), BX
	MOVQ    b_base+32(FP), DX
	MOVQ    out+56(FP), DI
	MOVQ    0(BX), R8
	MOVQ    8(BX), CX
	MOVQ    24(BX), R9
	MOVQ    48(BX), R10
	MOVQ    72(BX), R11
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ    CX, R12
	SHLQ    $5, R12
	ADDQ    SI, R12
	XORQ    AX, AX
	TESTQ   CX, CX
	JEQ     affine8x4done

affine8x4loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      (R12), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VBROADCASTSD (R9)(AX*8), Y11
	VBROADCASTSD (R10)(AX*8), Y12
	VBROADCASTSD (R11)(AX*8), Y13
	VMULPD       Y8, Y10, Y14
	VMULPD       Y9, Y10, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VMULPD       Y8, Y12, Y14
	VMULPD       Y9, Y12, Y15
	VADDPD       Y14, Y4, Y4
	VADDPD       Y15, Y5, Y5
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $32, R12
	INCQ         AX
	CMPQ         AX, CX
	JLT          affine8x4loop

affine8x4done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func addScaledTileAVX2(x *[4][]float64, d *[4]float64, k int, r []float64)
//
// Lanes run along i: r[i:i+4] is loaded once, takes d_s·x_s[i:i+4] for
// s = 0..k−1 in order, and is stored once. One loop per k keeps the
// sample count out of the loop body.
TEXT ·addScaledTileAVX2(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), BX
	MOVQ         d+8(FP), DX
	MOVQ         k+16(FP), R12
	MOVQ         r_base+24(FP), DI
	MOVQ         r_len+32(FP), CX
	MOVQ         0(BX), R8
	MOVQ         24(BX), R9
	MOVQ         48(BX), R10
	MOVQ         72(BX), R11
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	XORQ         AX, AX
	TESTQ        CX, CX
	JEQ          tiledone
	CMPQ         R12, $2
	JLT          tile1
	JEQ          tile2
	CMPQ         R12, $3
	JEQ          tile3

tile4:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tile4
	JMP     tiledone

tile3:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tile3
	JMP     tiledone

tile2:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y4, Y5, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tile2
	JMP     tiledone

tile1:
	// k = 0 never reaches the kernel with elements to update.
	TESTQ   R12, R12
	JEQ     tiledone

tile1loop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tile1loop

tiledone:
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
