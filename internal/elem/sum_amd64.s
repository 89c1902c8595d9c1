#include "textflag.h"

// The sum bodies run over [0, len &^ 31) float32s or [0, len &^ 15)
// float64s: four 32-byte lanes per iteration, loaded unaligned. The left
// operand (d in place, a out of place) is loaded into the register and is
// the first source of the add, the right operand is the memory source.

// func sumToF32(d, s []float32) int
TEXT ·sumToF32(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ s_len+32(FP), CX
	ANDQ $-32, CX
	XORQ AX, AX
	JMP  cond

loop:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VADDPS  (SI)(AX*4), Y0, Y0
	VADDPS  32(SI)(AX*4), Y1, Y1
	VADDPS  64(SI)(AX*4), Y2, Y2
	VADDPS  96(SI)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+48(FP)
	RET

// func sumToF64(d, s []float64) int
TEXT ·sumToF64(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ s_len+32(FP), CX
	ANDQ $-16, CX
	XORQ AX, AX
	JMP  cond

loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VADDPD  (SI)(AX*8), Y0, Y0
	VADDPD  32(SI)(AX*8), Y1, Y1
	VADDPD  64(SI)(AX*8), Y2, Y2
	VADDPD  96(SI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+48(FP)
	RET

// func sumOfF32(d, a, b []float32) int
TEXT ·sumOfF32(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), CX
	ANDQ $-32, CX
	XORQ AX, AX
	JMP  cond

loop:
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS 64(SI)(AX*4), Y2
	VMOVUPS 96(SI)(AX*4), Y3
	VADDPS  (DX)(AX*4), Y0, Y0
	VADDPS  32(DX)(AX*4), Y1, Y1
	VADDPS  64(DX)(AX*4), Y2, Y2
	VADDPS  96(DX)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+72(FP)
	RET

// func sumOfF64(d, a, b []float64) int
TEXT ·sumOfF64(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), CX
	ANDQ $-16, CX
	XORQ AX, AX
	JMP  cond

loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VADDPD  (DX)(AX*8), Y0, Y0
	VADDPD  32(DX)(AX*8), Y1, Y1
	VADDPD  64(DX)(AX*8), Y2, Y2
	VADDPD  96(DX)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+72(FP)
	RET

// The chain bodies run over [0, n &^ 31) float32s or [0, n &^ 15)
// float64s, four 32-byte lanes per iteration. outs and ins are slices of
// slice headers (24 bytes each, base first). Per iteration the partial is
// loaded from ins[1]; each next input, ins[2] up to ins[m-1] and then
// ins[0], is loaded into Y4–Y7 and is the first source of the add, so it
// stays the left operand; the sum is stored from Y0–Y3 into every out.

// func sumChainF32(outs, ins [][]byte, n int) int
TEXT ·sumChainF32(SB), NOSPLIT, $0-64
	MOVQ outs_base+0(FP), R8
	MOVQ outs_len+8(FP), R9
	IMUL3Q $24, R9, R9
	ADDQ R8, R9
	MOVQ ins_base+24(FP), R10
	MOVQ ins_len+32(FP), R11
	IMUL3Q $24, R11, R11
	ADDQ R10, R11
	MOVQ n+48(FP), CX
	ANDQ $-32, CX
	XORQ AX, AX
	JMP  cond

loop:
	MOVQ    24(R10), SI
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS 64(SI)(AX*4), Y2
	VMOVUPS 96(SI)(AX*4), Y3
	LEAQ    48(R10), DX

add:
	CMPQ    DX, R11
	JEQ     last
	MOVQ    (DX), SI
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VADDPS  Y0, Y4, Y0
	VADDPS  Y1, Y5, Y1
	VADDPS  Y2, Y6, Y2
	VADDPS  Y3, Y7, Y3
	ADDQ    $24, DX
	JMP     add

last:
	MOVQ    (R10), SI
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VADDPS  Y0, Y4, Y0
	VADDPS  Y1, Y5, Y1
	VADDPS  Y2, Y6, Y2
	VADDPS  Y3, Y7, Y3
	MOVQ    R8, DX

store:
	MOVQ    (DX), DI
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $24, DX
	CMPQ    DX, R9
	JNE     store
	ADDQ    $32, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)
	RET

// func sumChainF64(outs, ins [][]byte, n int) int
TEXT ·sumChainF64(SB), NOSPLIT, $0-64
	MOVQ outs_base+0(FP), R8
	MOVQ outs_len+8(FP), R9
	IMUL3Q $24, R9, R9
	ADDQ R8, R9
	MOVQ ins_base+24(FP), R10
	MOVQ ins_len+32(FP), R11
	IMUL3Q $24, R11, R11
	ADDQ R10, R11
	MOVQ n+48(FP), CX
	ANDQ $-16, CX
	XORQ AX, AX
	JMP  cond

loop:
	MOVQ    24(R10), SI
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	LEAQ    48(R10), DX

add:
	CMPQ    DX, R11
	JEQ     last
	MOVQ    (DX), SI
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	ADDQ    $24, DX
	JMP     add

last:
	MOVQ    (R10), SI
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	MOVQ    R8, DX

store:
	MOVQ    (DX), DI
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $24, DX
	CMPQ    DX, R9
	JNE     store
	ADDQ    $16, AX

cond:
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	MOVQ CX, ret+56(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
// Low half of XCR0, the OS-enabled register state; only valid when CPUID
// reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
