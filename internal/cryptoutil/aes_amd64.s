//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// AES-128 encryption with AES-NI for the data-plane MACs (Eqs. 4 and 6) and
// every control-plane CBC chain.
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

// SIGMAENC encrypts the block in X0 under the key in X1, expanding the key
// round by round in registers; clobbers X1-X5.
#define SIGMAENC \
	MOVOU      rotword<>(SB), X5; \
	MOVOU      rcon01<>(SB), X4; \
	PXOR       X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENC     X1, X0; \
	MOVOU      rcon1b<>(SB), X4; \
	NEXTKEY; \
	AESENC     X1, X0; \
	NEXTKEY; \
	AESENCLAST X1, X0

// func sigmaMACAESNI(sigma *Key, mac, block *[16]byte)
TEXT ·sigmaMACAESNI(SB), NOSPLIT, $0-24
	MOVQ  sigma+0(FP), AX
	MOVQ  mac+8(FP), DX
	MOVQ  block+16(FP), BX
	MOVOU (AX), X1
	MOVOU (BX), X0
	SIGMAENC
	MOVOU X0, (DX)
	RET

// ENCRYPT encrypts X0 under the round keys held in X1 (round 0) to X11
// (round 10).
#define ENCRYPT \
	PXOR       X1, X0; \
	AESENC     X2, X0; \
	AESENC     X3, X0; \
	AESENC     X4, X0; \
	AESENC     X5, X0; \
	AESENC     X6, X0; \
	AESENC     X7, X0; \
	AESENC     X8, X0; \
	AESENC     X9, X0; \
	AESENC     X10, X0; \
	AESENCLAST X11, X0

// ROUND4 runs AES round key off of each of four schedules (R8-R11) on the
// four chain states X0-X3; clobbers X4-X7.
#define ROUND4(off) \
	MOVOU  off(R8), X4; \
	MOVOU  off(R9), X5; \
	MOVOU  off(R10), X6; \
	MOVOU  off(R11), X7; \
	AESENC X4, X0; \
	AESENC X5, X1; \
	AESENC X6, X2; \
	AESENC X7, X3

// ENCRYPT4 encrypts X0-X3, each under its own schedule (R8-R11), the four
// chains interleaved round by round; clobbers X4-X7.
#define ENCRYPT4 \
	MOVOU      (R8), X4; \
	MOVOU      (R9), X5; \
	MOVOU      (R10), X6; \
	MOVOU      (R11), X7; \
	PXOR       X4, X0; \
	PXOR       X5, X1; \
	PXOR       X6, X2; \
	PXOR       X7, X3; \
	ROUND4(16); \
	ROUND4(32); \
	ROUND4(48); \
	ROUND4(64); \
	ROUND4(80); \
	ROUND4(96); \
	ROUND4(112); \
	ROUND4(128); \
	ROUND4(144); \
	MOVOU      160(R8), X4; \
	MOVOU      160(R9), X5; \
	MOVOU      160(R10), X6; \
	MOVOU      160(R11), X7; \
	AESENCLAST X4, X0; \
	AESENCLAST X5, X1; \
	AESENCLAST X6, X2; \
	AESENCLAST X7, X3

// XOR4 XORs the block at (AX), (BX), (DX), (SI) into X0, X1, X2, X3;
// clobbers X8-X11.
#define XOR4 \
	MOVOU (AX), X8; \
	MOVOU (BX), X9; \
	MOVOU (DX), X10; \
	MOVOU (SI), X11; \
	PXOR  X8, X0; \
	PXOR  X9, X1; \
	PXOR  X10, X2; \
	PXOR  X11, X3

// func cbcChainsAESNI(c *chains, lanes, blocks int)
//
// The CBC chains of c: chain i is E_ks[i] over full[i] (blocks whole blocks)
// then last[i], from a zero IV, into mac[i]. lanes is 1 or 4. One chain keeps
// its eleven round keys in registers for the whole message; four chains load
// each round key from their own schedule as the round comes up, and run the
// round in all four before the next. Every input is read before any MAC is
// written.
TEXT ·cbcChainsAESNI(SB), NOSPLIT, $0-24
	MOVQ  c+0(FP), DI
	MOVQ  blocks+16(FP), CX
	PXOR  X0, X0
	CMPQ  lanes+8(FP), $1
	JNE   four
	MOVQ  chains_ks(DI), AX
	MOVQ  chains_full(DI), BX
	MOVOU (AX), X1
	MOVOU 16(AX), X2
	MOVOU 32(AX), X3
	MOVOU 48(AX), X4
	MOVOU 64(AX), X5
	MOVOU 80(AX), X6
	MOVOU 96(AX), X7
	MOVOU 112(AX), X8
	MOVOU 128(AX), X9
	MOVOU 144(AX), X10
	MOVOU 160(AX), X11
	TESTQ CX, CX
	JZ    onelast

oneloop:
	MOVOU (BX), X12
	PXOR  X12, X0
	ENCRYPT
	ADDQ  $16, BX
	DECQ  CX
	JNZ   oneloop

onelast:
	MOVQ  chains_last(DI), BX
	MOVOU (BX), X12
	PXOR  X12, X0
	ENCRYPT
	MOVQ  chains_mac(DI), DX
	MOVOU X0, (DX)
	RET

four:
	MOVQ chains_ks+0(DI), R8
	MOVQ chains_ks+8(DI), R9
	MOVQ chains_ks+16(DI), R10
	MOVQ chains_ks+24(DI), R11
	MOVQ chains_full+0(DI), AX
	MOVQ chains_full+24(DI), BX
	MOVQ chains_full+48(DI), DX
	MOVQ chains_full+72(DI), SI
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	TESTQ CX, CX
	JZ   fourlast

fourloop:
	XOR4
	ENCRYPT4
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, DX
	ADDQ $16, SI
	DECQ CX
	JNZ  fourloop

fourlast:
	MOVQ  chains_last+0(DI), AX
	MOVQ  chains_last+8(DI), BX
	MOVQ  chains_last+16(DI), DX
	MOVQ  chains_last+24(DI), SI
	XOR4
	ENCRYPT4
	MOVQ  chains_mac+0(DI), AX
	MOVQ  chains_mac+8(DI), BX
	MOVQ  chains_mac+16(DI), DX
	MOVQ  chains_mac+24(DI), SI
	MOVOU X0, (AX)
	MOVOU X1, (BX)
	MOVOU X2, (DX)
	MOVOU X3, (SI)
	RET

// func hopMACAESNI(ks *AESSchedule, in *[48]byte, block, mac *[16]byte)
//
// One router hop: σ = CBC-MAC_ks(in) (Eq. 4) with ks's eleven round keys
// loaded into registers once, then mac = AES-128_σ(block) (Eq. 6) with σ
// handed over in a register. block is read before mac is written.
TEXT ·hopMACAESNI(SB), NOSPLIT, $0-32
	MOVQ  ks+0(FP), AX
	MOVQ  in+8(FP), BX
	MOVQ  block+16(FP), CX
	MOVQ  mac+24(FP), DX
	MOVOU (AX), X1
	MOVOU 16(AX), X2
	MOVOU 32(AX), X3
	MOVOU 48(AX), X4
	MOVOU 64(AX), X5
	MOVOU 80(AX), X6
	MOVOU 96(AX), X7
	MOVOU 112(AX), X8
	MOVOU 128(AX), X9
	MOVOU 144(AX), X10
	MOVOU 160(AX), X11
	MOVOU (BX), X0
	ENCRYPT
	MOVOU 16(BX), X12
	PXOR  X12, X0
	ENCRYPT
	MOVOU 32(BX), X12
	PXOR  X12, X0
	ENCRYPT
	MOVO  X0, X1
	MOVOU (CX), X0
	SIGMAENC
	MOVOU X0, (DX)
	RET
