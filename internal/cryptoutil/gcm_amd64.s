//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// AES-128-GCM (NIST SP 800-38D) for one 16-byte block and at most one block
// of associated data: the σ seal and open of Eq. 5. The field arithmetic
// follows the standard library's kernel (crypto/internal/fips140/aes/gcm,
// gcm_amd64.s): blocks are byte-reversed into the bit-reflected domain, H is
// stored doubled, a product takes three carry-less multiplies (Karatsuba) and
// a reduction two more against the folded polynomial. GHASH over the three
// blocks — associated data A, ciphertext C and the length block L — is
// A·H³ ⊕ C·H² ⊕ L·H, summed unreduced and reduced once.

// gcmBswap<> reverses the sixteen bytes of a block.
DATA gcmBswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA gcmBswap<>+8(SB)/8, $0x0001020304050607
GLOBL gcmBswap<>(SB), RODATA|NOPTR, $16

// gcmPoly<> is the reduction polynomial, folded.
DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// gcmCtr2<> turns J0, whose 32-bit counter is 1, into J0+1 by XOR: 1 ^ 3 = 2
// in the last byte.
DATA gcmCtr2<>+0(SB)/8, $0
DATA gcmCtr2<>+8(SB)/8, $0x0300000000000000
GLOBL gcmCtr2<>(SB), RODATA|NOPTR, $16

// func cpuHasPCLMUL() bool
//
// CPUID.1:ECX bits 1 (PCLMULQDQ) and 19 (SSE4.1, for PINSRQ).
TEXT ·cpuHasPCLMUL(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00080002, CX
	CMPL  CX, $0x00080002
	SETEQ ret+0(FP)
	RET

// GFMULH sets X2 to X2·H and X3 to its Karatsuba half (hi ⊕ lo in both
// qwords); X0 holds H and X1 its half, X14 the polynomial. Clobbers X4,
// X11-X13.
#define GFMULH \
	MOVOU     X2, X11; \
	MOVOU     X2, X12; \
	MOVOU     X3, X13; \
	PCLMULQDQ $0x00, X0, X11; \
	PCLMULQDQ $0x11, X0, X12; \
	PCLMULQDQ $0x00, X1, X13; \
	PXOR      X11, X13; \
	PXOR      X12, X13; \
	MOVOU     X13, X4; \
	PSLLDQ    $0x08, X4; \
	PSRLDQ    $0x08, X13; \
	PXOR      X4, X11; \
	PXOR      X13, X12; \
	MOVOU     X14, X2; \
	PCLMULQDQ $0x01, X11, X2; \
	PSHUFD    $0x4e, X11, X11; \
	PXOR      X2, X11; \
	MOVOU     X14, X2; \
	PCLMULQDQ $0x01, X11, X2; \
	PSHUFD    $0x4e, X11, X11; \
	PXOR      X11, X2; \
	PXOR      X12, X2; \
	PSHUFD    $0x4e, X2, X3; \
	PXOR      X2, X3

// func gcmInitAESNI(gk *gcmKey)
//
// H = E_K(0) under gk.ks, then gk.h: H³, H² and H, each followed by its
// Karatsuba half.
TEXT ·gcmInitAESNI(SB), NOSPLIT, $0-8
	MOVQ       gk+0(FP), DI
	MOVOU      gcmBswap<>(SB), X15
	MOVOU      gcmPoly<>(SB), X14
	MOVOU      gcmKey_ks+0(DI), X0
	MOVOU      gcmKey_ks+16(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+32(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+48(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+64(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+80(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+96(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+112(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+128(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+144(DI), X1
	AESENC     X1, X0
	MOVOU      gcmKey_ks+160(DI), X1
	AESENCLAST X1, X0
	PSHUFB     X15, X0

	// H·2: shift left one bit, folding the carry out of the top back in.
	PSHUFD $0xff, X0, X11
	MOVOU  X0, X12
	PSRAL  $0x1f, X11
	PAND   X14, X11
	PSRLL  $0x1f, X12
	PSLLDQ $0x04, X12
	PSLLL  $0x01, X0
	PXOR   X11, X0
	PXOR   X12, X0

	PSHUFD $0x4e, X0, X1
	PXOR   X0, X1
	MOVOU  X0, gcmKey_h+64(DI)
	MOVOU  X1, gcmKey_h+80(DI)
	MOVOU  X0, X2
	MOVOU  X1, X3
	GFMULH
	MOVOU  X2, gcmKey_h+32(DI)
	MOVOU  X3, gcmKey_h+48(DI)
	GFMULH
	MOVOU  X2, gcmKey_h+0(DI)
	MOVOU  X3, gcmKey_h+16(DI)
	RET

// GFMULACC adds the unreduced product of the block in x and the power of H
// at gk.h+off into X8 (low), X9 (high) and X10 (middle); clobbers x, X12,
// X13.
#define GFMULACC(x, off) \
	MOVOU     gcmKey_h+off(DI), X12; \
	MOVOU     X12, X13; \
	PCLMULQDQ $0x00, x, X12; \
	PXOR      X12, X8; \
	PCLMULQDQ $0x11, x, X13; \
	PXOR      X13, X9; \
	PSHUFD    $0x4e, x, X12; \
	PXOR      X12, x; \
	MOVOU     gcmKey_h+off+16(DI), X12; \
	PCLMULQDQ $0x00, x, X12; \
	PXOR      X12, X10

// func gcmOneAESNI(gk *gcmKey, j0, ad *[16]byte, adLen uint64, in, out, tag *[16]byte, seal bool)
//
// Under gk, E_K(J0) and E_K(J0+1) interleaved round by round; out = in ⊕
// E_K(J0+1), and tag the GHASH of ad (adLen bytes, zero-padded to the block),
// of the ciphertext — out when sealing, in when opening — and of the lengths,
// masked with E_K(J0). Every input is read before any output is written.
TEXT ·gcmOneAESNI(SB), NOSPLIT, $0-57
	MOVQ       gk+0(FP), DI
	MOVQ       j0+8(FP), AX
	MOVOU      (AX), X0
	MOVOU      gcmCtr2<>(SB), X1
	PXOR       X0, X1
	MOVOU      gcmKey_ks+0(DI), X2
	PXOR       X2, X0
	PXOR       X2, X1
	MOVOU      gcmKey_ks+16(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+32(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+48(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+64(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+80(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+96(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+112(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+128(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+144(DI), X2
	AESENC     X2, X0
	AESENC     X2, X1
	MOVOU      gcmKey_ks+160(DI), X2
	AESENCLAST X2, X0
	AESENCLAST X2, X1

	// X0 = E_K(J0), the tag mask; X3 = in ⊕ E_K(J0+1); X2 the ciphertext.
	MOVQ  in+32(FP), AX
	MOVOU (AX), X2
	MOVOU X2, X3
	PXOR  X1, X3
	MOVB  seal+56(FP), CX
	TESTB CX, CX
	JZ    ghash
	MOVOU X3, X2

ghash:
	MOVOU  gcmBswap<>(SB), X15
	MOVOU  gcmPoly<>(SB), X14
	MOVQ   ad+16(FP), AX
	MOVOU  (AX), X4
	PSHUFB X15, X4
	PSHUFB X15, X2
	MOVQ   adLen+24(FP), AX
	SHLQ   $3, AX
	MOVQ   $128, BX
	MOVQ   BX, X5
	PINSRQ $0x01, AX, X5

	// A·H³, then C·H² and L·H added unreduced.
	MOVOU     gcmKey_h+0(DI), X8
	MOVOU     gcmKey_h+16(DI), X10
	MOVOU     X8, X9
	PSHUFD    $0x4e, X4, X12
	PXOR      X4, X12
	PCLMULQDQ $0x00, X4, X8
	PCLMULQDQ $0x11, X4, X9
	PCLMULQDQ $0x00, X12, X10
	GFMULACC(X2, 32)
	GFMULACC(X5, 64)

	// One reduction of the sum.
	PXOR      X8, X10
	PXOR      X9, X10
	MOVOU     X10, X11
	PSRLDQ    $0x08, X10
	PSLLDQ    $0x08, X11
	PXOR      X10, X9
	PXOR      X11, X8
	MOVOU     X14, X11
	PCLMULQDQ $0x01, X8, X11
	PSHUFD    $0x4e, X8, X8
	PXOR      X11, X8
	MOVOU     X14, X11
	PCLMULQDQ $0x01, X8, X11
	PSHUFD    $0x4e, X8, X8
	PXOR      X11, X8
	PXOR      X9, X8
	PSHUFB    X15, X8
	PXOR      X0, X8

	MOVQ  out+40(FP), AX
	MOVOU X3, (AX)
	MOVQ  tag+48(FP), AX
	MOVOU X8, (AX)
	RET
