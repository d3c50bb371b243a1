//! x86-64 instruction builder: the general-purpose and AVX (VEX-encoded)
//! subset a finite-difference kernel body needs, with label-based rel32
//! branch fixups.
//!
//! Encoding conventions, chosen for uniformity over code size:
//!
//! * Memory operands are always `mod=10` (disp32) with a SIB byte —
//!   `[base + index*4 + disp32]` when an index register is given (the
//!   index is an f32 *element* counter, hence the fixed ×4 scale) or
//!   `[base + disp32]` without one. One form, no special cases for
//!   RBP/R12-class registers.
//! * Vector instructions always use the 3-byte `C4` VEX prefix and are
//!   all 256-bit (`L=1`): packed `ps` arithmetic, full-width moves, and
//!   `vmaskmovps` for a strip's live lanes. No legacy-SSE register ops are emitted (`stmxcsr`/`ldmxcsr`
//!   touch only MXCSR), so `vzeroupper` before `ret` is the only
//!   transition-penalty concern.
//! * Three-operand AVX ops follow the VEX convention
//!   `op dst, src1, src2/mem`: `dst` in ModRM.reg, `src1` in `vvvv`,
//!   `src2` in ModRM.rm.

/// General-purpose 64-bit registers (hardware encoding in the value).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    #[inline]
    fn num(self) -> u8 {
        self as u8
    }
}

/// AVX vector register ymm0–ymm15.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ymm(pub u8);

/// Condition codes for `jcc` (unsigned compares + equality).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cc {
    /// Above (unsigned >).
    A,
    /// Above or equal (unsigned >=).
    Ae,
    /// Below (unsigned <).
    B,
    /// Below or equal (unsigned <=).
    Be,
    /// Equal.
    E,
    /// Not equal.
    Ne,
}

impl Cc {
    fn opcode(self) -> u8 {
        // Second byte of the 0F 8x near-jcc encoding.
        match self {
            Cc::A => 0x87,
            Cc::Ae => 0x83,
            Cc::B => 0x82,
            Cc::Be => 0x86,
            Cc::E => 0x84,
            Cc::Ne => 0x85,
        }
    }
}

/// A branch target; create with [`Asm::new_label`], place with
/// [`Asm::bind`]. Forward and backward references both work — rel32
/// displacements are patched in [`Asm::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Label(usize);

/// Instruction buffer.
pub struct Asm {
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    /// `(offset of rel32 field, label)` pairs to patch at finish.
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    pub fn new() -> Asm {
        Asm {
            code: Vec::with_capacity(256),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Current length in bytes (diagnostics).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Resolve all label fixups and return the finished machine code.
    ///
    /// Panics on a referenced-but-unbound label: that is a codegen bug,
    /// never a data-dependent condition.
    pub fn finish(mut self) -> Vec<u8> {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label].expect("branch to unbound label");
            let rel = target as i64 - (pos as i64 + 4);
            let rel32 = i32::try_from(rel).expect("branch displacement exceeds rel32");
            self.code[pos..pos + 4].copy_from_slice(&rel32.to_le_bytes());
        }
        self.code
    }

    // ---- labels & branches ------------------------------------------

    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len());
    }

    fn rel32(&mut self, l: Label) {
        self.fixups.push((self.code.len(), l.0));
        self.code.extend_from_slice(&[0, 0, 0, 0]);
    }

    /// `jmp rel32`.
    pub fn jmp(&mut self, l: Label) {
        self.code.push(0xE9);
        self.rel32(l);
    }

    /// `jcc rel32`.
    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.code.push(0x0F);
        self.code.push(cc.opcode());
        self.rel32(l);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.code.push(0xC3);
    }

    // ---- encoding helpers -------------------------------------------

    fn rex_w(&mut self, reg: u8, index: u8, base: u8) {
        self.code
            .push(0x48 | ((reg >> 3) & 1) << 2 | ((index >> 3) & 1) << 1 | ((base >> 3) & 1));
    }

    /// ModRM + SIB + disp32 for `[base + index*4 + disp]` (index is an
    /// f32 element count) or `[base + disp]`.
    fn mem(&mut self, reg: u8, base: u8, index: Option<u8>, disp: i32) {
        self.code.push(0b1000_0100 | (reg & 7) << 3); // mod=10, rm=SIB
        let (scale_bits, idx) = match index {
            Some(i) => {
                assert!(i != Reg::Rsp as u8, "rsp cannot be an index register");
                (2u8, i & 7) // scale ×4
            }
            None => (0u8, 4), // index=100: none
        };
        self.code.push(scale_bits << 6 | idx << 3 | (base & 7));
        self.code.extend_from_slice(&disp.to_le_bytes());
    }

    fn modrm_rr(&mut self, reg: u8, rm: u8) {
        self.code.push(0xC0 | (reg & 7) << 3 | (rm & 7));
    }

    /// 3-byte VEX prefix. `mmmmm`: 1 = 0F map, 2 = 0F38 map. `pp`:
    /// 0 = none, 1 = 66, 2 = F3, 3 = F2. One parameter per VEX field —
    /// collapsing them into a struct would only obscure the encoding.
    #[allow(clippy::too_many_arguments)]
    fn vex3(&mut self, reg: u8, index: u8, base: u8, mmmmm: u8, vvvv: u8, l: u8, pp: u8) {
        self.code.push(0xC4);
        self.code.push(
            (!(reg >> 3) & 1) << 7 | (!(index >> 3) & 1) << 6 | (!(base >> 3) & 1) << 5 | mmmmm,
        );
        // W=0 for every instruction we emit.
        self.code.push((!vvvv & 0xF) << 3 | l << 2 | pp);
    }

    // ---- general-purpose ops ----------------------------------------

    /// `mov dst, qword [base + disp]`.
    pub fn mov_r_m(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex_w(dst.num(), 0, base.num());
        self.code.push(0x8B);
        self.mem(dst.num(), base.num(), None, disp);
    }

    /// `mov dst, src` (64-bit).
    pub fn mov_r_r(&mut self, dst: Reg, src: Reg) {
        self.rex_w(dst.num(), 0, src.num());
        self.code.push(0x8B);
        self.modrm_rr(dst.num(), src.num());
    }

    /// `mov qword [base + disp], src`.
    pub fn mov_m_r(&mut self, base: Reg, disp: i32, src: Reg) {
        self.rex_w(src.num(), 0, base.num());
        self.code.push(0x89);
        self.mem(src.num(), base.num(), None, disp);
    }

    /// `lea dst, [base + disp]`.
    pub fn lea(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex_w(dst.num(), 0, base.num());
        self.code.push(0x8D);
        self.mem(dst.num(), base.num(), None, disp);
    }

    /// `add dst, qword [base + disp]`.
    pub fn add_r_m(&mut self, dst: Reg, base: Reg, disp: i32) {
        self.rex_w(dst.num(), 0, base.num());
        self.code.push(0x03);
        self.mem(dst.num(), base.num(), None, disp);
    }

    /// `add reg, imm32` (sign-extended).
    pub fn add_r_imm(&mut self, reg: Reg, imm: i32) {
        self.rex_w(0, 0, reg.num());
        self.code.push(0x81);
        self.modrm_rr(0, reg.num());
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `or reg, imm32` (sign-extended).
    pub fn or_r_imm(&mut self, reg: Reg, imm: i32) {
        self.rex_w(0, 0, reg.num());
        self.code.push(0x81);
        self.modrm_rr(1, reg.num());
        self.code.extend_from_slice(&imm.to_le_bytes());
    }

    /// `cmp a, b` (64-bit; sets flags for `a <op> b`).
    pub fn cmp_r_r(&mut self, a: Reg, b: Reg) {
        self.rex_w(b.num(), 0, a.num());
        self.code.push(0x39);
        self.modrm_rr(b.num(), a.num());
    }

    /// `inc reg` (64-bit).
    pub fn inc_r(&mut self, reg: Reg) {
        self.rex_w(0, 0, reg.num());
        self.code.push(0xFF);
        self.modrm_rr(0, reg.num());
    }

    /// `dec reg` (64-bit; sets ZF when the result is zero).
    pub fn dec_r(&mut self, reg: Reg) {
        self.rex_w(0, 0, reg.num());
        self.code.push(0xFF);
        self.modrm_rr(1, reg.num());
    }

    /// `push reg` (64-bit).
    pub fn push_r(&mut self, reg: Reg) {
        if reg.num() >= 8 {
            self.code.push(0x41);
        }
        self.code.push(0x50 | (reg.num() & 7));
    }

    /// `pop reg` (64-bit).
    pub fn pop_r(&mut self, reg: Reg) {
        if reg.num() >= 8 {
            self.code.push(0x41);
        }
        self.code.push(0x58 | (reg.num() & 7));
    }

    /// `xor reg, reg` — zero a register.
    pub fn xor_r(&mut self, reg: Reg) {
        self.rex_w(reg.num(), 0, reg.num());
        self.code.push(0x31);
        self.modrm_rr(reg.num(), reg.num());
    }

    // ---- MXCSR ------------------------------------------------------

    /// `stmxcsr dword [base + disp]` — store the SSE/AVX control and
    /// status register.
    pub fn stmxcsr(&mut self, base: Reg, disp: i32) {
        self.mxcsr_op(3, base, disp);
    }

    /// `ldmxcsr dword [base + disp]` — load the SSE/AVX control and
    /// status register.
    pub fn ldmxcsr(&mut self, base: Reg, disp: i32) {
        self.mxcsr_op(2, base, disp);
    }

    /// `0F AE /ext` with a memory operand (REX.B only for r8–r15).
    fn mxcsr_op(&mut self, ext: u8, base: Reg, disp: i32) {
        if base.num() >= 8 {
            self.code.push(0x41);
        }
        self.code.extend_from_slice(&[0x0F, 0xAE]);
        self.mem(ext, base.num(), None, disp);
    }

    // ---- AVX: moves and broadcast -----------------------------------

    /// `vmovups dst, ymmword [base + index*4 + disp]`.
    pub fn vmovups_load(&mut self, dst: Ymm, base: Reg, index: Option<Reg>, disp: i32) {
        let x = index.map_or(0, Reg::num);
        self.vex3(dst.0, x, base.num(), 1, 0, 1, 0);
        self.code.push(0x10);
        self.mem(dst.0, base.num(), index.map(Reg::num), disp);
    }

    /// `vmovups ymmword [base + index*4 + disp], src`.
    pub fn vmovups_store(&mut self, base: Reg, index: Option<Reg>, disp: i32, src: Ymm) {
        let x = index.map_or(0, Reg::num);
        self.vex3(src.0, x, base.num(), 1, 0, 1, 0);
        self.code.push(0x11);
        self.mem(src.0, base.num(), index.map(Reg::num), disp);
    }

    /// `vmovups dst, src` — full-width register move.
    pub fn vmovups_rr(&mut self, dst: Ymm, src: Ymm) {
        self.vex3(dst.0, 0, src.0, 1, 0, 1, 0);
        self.code.push(0x10);
        self.modrm_rr(dst.0, src.0);
    }

    /// `vbroadcastss dst, dword [base + disp]` — splat one f32 to all
    /// eight lanes.
    pub fn vbroadcastss(&mut self, dst: Ymm, base: Reg, disp: i32) {
        self.vex3(dst.0, 0, base.num(), 2, 0, 1, 1);
        self.code.push(0x18);
        self.mem(dst.0, base.num(), None, disp);
    }

    /// `vmaskmovps dst, mask, ymmword [base + index*4 + disp]`: load
    /// the lanes whose `mask` sign bit is set and zero the rest. Masked-off
    /// lanes never fault, so the operand may run past the mapping.
    pub fn vmaskmovps_load(
        &mut self,
        dst: Ymm,
        mask: Ymm,
        base: Reg,
        index: Option<Reg>,
        disp: i32,
    ) {
        let x = index.map_or(0, Reg::num);
        self.vex3(dst.0, x, base.num(), 2, mask.0, 1, 1);
        self.code.push(0x2C);
        self.mem(dst.0, base.num(), index.map(Reg::num), disp);
    }

    /// `vmaskmovps ymmword [base + index*4 + disp], mask, src`: store
    /// the lanes whose `mask` sign bit is set; the others stay untouched
    /// and never fault.
    pub fn vmaskmovps_store(
        &mut self,
        base: Reg,
        index: Option<Reg>,
        disp: i32,
        mask: Ymm,
        src: Ymm,
    ) {
        let x = index.map_or(0, Reg::num);
        self.vex3(src.0, x, base.num(), 2, mask.0, 1, 1);
        self.code.push(0x2E);
        self.mem(src.0, base.num(), index.map(Reg::num), disp);
    }

    // ---- AVX: packed arithmetic (256-bit) ---------------------------

    /// `vaddps dst, a, b`.
    pub fn vaddps_rr(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.ps_rr(0x58, dst, a, b);
    }

    /// `vaddps dst, a, ymmword [base + index*4 + disp]`.
    pub fn vaddps_rm(&mut self, dst: Ymm, a: Ymm, base: Reg, index: Option<Reg>, disp: i32) {
        self.ps_rm(0x58, dst, a, base, index, disp);
    }

    /// `vmulps dst, a, b`.
    pub fn vmulps_rr(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.ps_rr(0x59, dst, a, b);
    }

    /// `vmulps dst, a, ymmword [base + index*4 + disp]`.
    pub fn vmulps_rm(&mut self, dst: Ymm, a: Ymm, base: Reg, index: Option<Reg>, disp: i32) {
        self.ps_rm(0x59, dst, a, base, index, disp);
    }

    /// `vdivps dst, a, b` (computes `a / b`).
    pub fn vdivps_rr(&mut self, dst: Ymm, a: Ymm, b: Ymm) {
        self.ps_rr(0x5E, dst, a, b);
    }

    fn ps_rr(&mut self, op: u8, dst: Ymm, a: Ymm, b: Ymm) {
        self.vex3(dst.0, 0, b.0, 1, a.0, 1, 0);
        self.code.push(op);
        self.modrm_rr(dst.0, b.0);
    }

    fn ps_rm(&mut self, op: u8, dst: Ymm, a: Ymm, base: Reg, index: Option<Reg>, disp: i32) {
        let x = index.map_or(0, Reg::num);
        self.vex3(dst.0, x, base.num(), 1, a.0, 1, 0);
        self.code.push(op);
        self.mem(dst.0, base.num(), index.map(Reg::num), disp);
    }

    /// `vzeroupper` — required before returning to SSE-unaware code.
    pub fn vzeroupper(&mut self) {
        self.code.extend_from_slice(&[0xC5, 0xF8, 0x77]);
    }
}

impl Default for Asm {
    fn default() -> Self {
        Asm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-exact checks against hand-assembled references (verified
    /// against the Intel SDM encoding tables).
    #[test]
    fn known_encodings() {
        // vmovups ymm0, [rax + rcx*4 + 16]
        let mut a = Asm::new();
        a.vmovups_load(Ymm(0), Reg::Rax, Some(Reg::Rcx), 16);
        assert_eq!(
            a.finish(),
            vec![0xC4, 0xE1, 0x7C, 0x10, 0x84, 0x88, 16, 0, 0, 0]
        );

        // vbroadcastss ymm13, [r8 + 4]
        let mut a = Asm::new();
        a.vbroadcastss(Ymm(13), Reg::R8, 4);
        assert_eq!(
            a.finish(),
            vec![0xC4, 0x42, 0x7D, 0x18, 0xAC, 0x20, 4, 0, 0, 0]
        );

        // vaddps ymm1, ymm2, ymm3 ; vzeroupper ; ret
        let mut a = Asm::new();
        a.vaddps_rr(Ymm(1), Ymm(2), Ymm(3));
        a.vzeroupper();
        a.ret();
        assert_eq!(
            a.finish(),
            vec![0xC4, 0xE1, 0x6C, 0x58, 0xCB, 0xC5, 0xF8, 0x77, 0xC3]
        );

        // vmaskmovps ymm0, ymm1, [rax + rcx*4 + 16]
        let mut a = Asm::new();
        a.vmaskmovps_load(Ymm(0), Ymm(1), Reg::Rax, Some(Reg::Rcx), 16);
        assert_eq!(
            a.finish(),
            vec![0xC4, 0xE2, 0x75, 0x2C, 0x84, 0x88, 16, 0, 0, 0]
        );

        // vmaskmovps [r10 + rcx*4 + 32], ymm9, ymm2
        let mut a = Asm::new();
        a.vmaskmovps_store(Reg::R10, Some(Reg::Rcx), 32, Ymm(9), Ymm(2));
        assert_eq!(
            a.finish(),
            vec![0xC4, 0xC2, 0x35, 0x2E, 0x94, 0x8A, 32, 0, 0, 0]
        );

        // mov rdx, [rdi + 24]
        let mut a = Asm::new();
        a.mov_r_m(Reg::Rdx, Reg::Rdi, 24);
        assert_eq!(a.finish(), vec![0x48, 0x8B, 0x94, 0x27, 24, 0, 0, 0]);

        // stmxcsr [rdi + 32] ; ldmxcsr [r9 + 40]
        let mut a = Asm::new();
        a.stmxcsr(Reg::Rdi, 32);
        a.ldmxcsr(Reg::R9, 40);
        assert_eq!(
            a.finish(),
            vec![
                0x0F, 0xAE, 0x9C, 0x27, 32, 0, 0, 0, //
                0x41, 0x0F, 0xAE, 0x94, 0x21, 40, 0, 0, 0,
            ]
        );

        // or rax, 0x8040 ; mov [rdi + 40], rax
        let mut a = Asm::new();
        a.or_r_imm(Reg::Rax, 0x8040);
        a.mov_m_r(Reg::Rdi, 40, Reg::Rax);
        assert_eq!(
            a.finish(),
            vec![
                0x48, 0x81, 0xC8, 0x40, 0x80, 0, 0, //
                0x48, 0x89, 0x84, 0x27, 40, 0, 0, 0,
            ]
        );
    }

    /// The row-loop forms: pointer steps through memory, the row
    /// counter and the callee-saved register spills.
    #[test]
    fn row_loop_encodings() {
        // add r10, [rax + 8]
        let mut a = Asm::new();
        a.add_r_m(Reg::R10, Reg::Rax, 8);
        assert_eq!(a.finish(), vec![0x4C, 0x03, 0x94, 0x20, 8, 0, 0, 0]);

        // add rcx, [r13 + 16]
        let mut a = Asm::new();
        a.add_r_m(Reg::Rcx, Reg::R13, 16);
        assert_eq!(a.finish(), vec![0x49, 0x03, 0x8C, 0x25, 16, 0, 0, 0]);

        // dec rbx ; dec r15
        let mut a = Asm::new();
        a.dec_r(Reg::Rbx);
        a.dec_r(Reg::R15);
        assert_eq!(a.finish(), vec![0x48, 0xFF, 0xCB, 0x49, 0xFF, 0xCF]);

        // push rbx ; push r12 ; pop r12 ; pop rbx
        let mut a = Asm::new();
        a.push_r(Reg::Rbx);
        a.push_r(Reg::R12);
        a.pop_r(Reg::R12);
        a.pop_r(Reg::Rbx);
        assert_eq!(a.finish(), vec![0x53, 0x41, 0x54, 0x41, 0x5C, 0x5B]);
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        let top = a.new_label();
        let out = a.new_label();
        a.bind(top);
        a.inc_r(Reg::Rcx); // 3 bytes
        a.cmp_r_r(Reg::Rcx, Reg::Rdx); // 3 bytes
        a.jcc(Cc::Ae, out); // 6 bytes
        a.jmp(top); // 5 bytes
        a.bind(out);
        a.ret();
        let code = a.finish();
        // jcc rel32 at offset 6, field at 8, next insn at 12, target 17.
        assert_eq!(&code[8..12], &5i32.to_le_bytes());
        // jmp rel32 field at 13, next insn at 17, target 0 → rel -17.
        assert_eq!(&code[13..17], &(-17i32).to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.jmp(l);
        a.finish();
    }
}
