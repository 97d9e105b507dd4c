//go:build amd64 && !purego

#include "textflag.h"

// AES-128 encryption with AES-NI for the data-plane MACs (Eqs. 4 and 6).
// The key schedule uses PSHUFB + AESENCLAST instead of AESKEYGENASSIST
// (microcoded, ~12 cycles on Intel): broadcasting RotWord(w3) to all four
// columns makes ShiftRows a no-op, so AESENCLAST against the round constant
// yields SubWord(RotWord(w3)) ^ rcon in every column; the rest of the round
// key is the running XOR of the previous key's words.

// rotword<> selects bytes 13,14,15,12 into every column.
DATA rotword<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotword<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotword<>(SB), RODATA|NOPTR, $16

// Round constants 0x01 (doubled in place for rounds 1-8) and 0x1b (rounds
// 9-10), in every column.
DATA rcon01<>+0(SB)/8, $0x0000000100000001
DATA rcon01<>+8(SB)/8, $0x0000000100000001
GLOBL rcon01<>(SB), RODATA|NOPTR, $16
DATA rcon1b<>+0(SB)/8, $0x0000001b0000001b
DATA rcon1b<>+8(SB)/8, $0x0000001b0000001b
GLOBL rcon1b<>(SB), RODATA|NOPTR, $16

// NEXTKEY turns the round key in X1 into the next one. X5 = rotword,
// X4 = round constant (doubled for the next round); clobbers X2, X3.
#define NEXTKEY \
	MOVO       X1, X2; \
	PSHUFB     X5, X2; \
	AESENCLAST X4, X2; \
	PSLLL      $1, X4; \
	MOVO       X1, X3; \
	PSLLDQ     $4, X3; \
	PXOR       X3, X1; \
	MOVO       X1, X3; \
	PSLLDQ     $8, X3; \
	PXOR       X3, X1; \
	PXOR       X2, X1

// func cpuHasAESNI() bool
TEXT ·cpuHasAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x02000200, CX // AES (bit 25) and SSSE3 (bit 9)
	CMPL  CX, $0x02000200
	SETEQ ret+0(FP)
	RET

// func expandAESNI(ks *AESSchedule, key *Key)
TEXT ·expandAESNI(SB), NOSPLIT, $0-16
	MOVQ  ks+0(FP), AX
	MOVQ  key+8(FP), BX
	MOVOU (BX), X1
	MOVOU rotword<>(SB), X5
	MOVOU rcon01<>(SB), X4
	MOVOU X1, (AX)
	NEXTKEY
	MOVOU X1, 16(AX)
	NEXTKEY
	MOVOU X1, 32(AX)
	NEXTKEY
	MOVOU X1, 48(AX)
	NEXTKEY
	MOVOU X1, 64(AX)
	NEXTKEY
	MOVOU X1, 80(AX)
	NEXTKEY
	MOVOU X1, 96(AX)
	NEXTKEY
	MOVOU X1, 112(AX)
	NEXTKEY
	MOVOU X1, 128(AX)
	MOVOU rcon1b<>(SB), X4
	NEXTKEY
	MOVOU X1, 144(AX)
	NEXTKEY
	MOVOU X1, 160(AX)
	RET

// func encryptAESNI(ks *AESSchedule, dst, src *[16]byte)
TEXT ·encryptAESNI(SB), NOSPLIT, $0-24
	MOVQ       ks+0(FP), AX
	MOVQ       dst+8(FP), DX
	MOVQ       src+16(FP), BX
	MOVOU      (BX), X0
	MOVOU      (AX), X1
	PXOR       X1, X0
	MOVOU      16(AX), X1
	AESENC     X1, X0
	MOVOU      32(AX), X1
	AESENC     X1, X0
	MOVOU      48(AX), X1
	AESENC     X1, X0
	MOVOU      64(AX), X1
	AESENC     X1, X0
	MOVOU      80(AX), X1
	AESENC     X1, X0
	MOVOU      96(AX), X1
	AESENC     X1, X0
	MOVOU      112(AX), X1
	AESENC     X1, X0
	MOVOU      128(AX), X1
	AESENC     X1, X0
	MOVOU      144(AX), X1
	AESENC     X1, X0
	MOVOU      160(AX), X1
	AESENCLAST X1, X0
	MOVOU      X0, (DX)
	RET

// func sigmaMACAESNI(sigma *Key, mac, block *[16]byte)
TEXT ·sigmaMACAESNI(SB), NOSPLIT, $0-24
	MOVQ       sigma+0(FP), AX
	MOVQ       mac+8(FP), DX
	MOVQ       block+16(FP), BX
	MOVOU      (AX), X1
	MOVOU      (BX), X0
	MOVOU      rotword<>(SB), X5
	MOVOU      rcon01<>(SB), X4
	PXOR       X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENC     X1, X0
	MOVOU      rcon1b<>(SB), X4
	NEXTKEY
	AESENC     X1, X0
	NEXTKEY
	AESENCLAST X1, X0
	MOVOU      X0, (DX)
	RET
