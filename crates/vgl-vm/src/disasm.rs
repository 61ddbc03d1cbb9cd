//! Bytecode disassembler, for `vglc disasm` and debugging — including the
//! [`side_by_side`] view `vglc disasm` uses to show each function before and
//! after superinstruction fusion.

use crate::bytecode::{BinKind, Instr, VmProgram};
use std::fmt::Write as _;

fn bin_op(k: BinKind) -> &'static str {
    match k {
        BinKind::Add => "+",
        BinKind::Sub => "-",
        BinKind::Mul => "*",
        BinKind::Div => "/",
        BinKind::Mod => "%",
        BinKind::Lt => "<",
        BinKind::Le => "<=",
        BinKind::Gt => ">",
        BinKind::Ge => ">=",
        BinKind::And => "&",
        BinKind::Or => "|",
        BinKind::Xor => "^",
        BinKind::Shl => "<<",
        BinKind::Shr => ">>",
    }
}

fn regs(rs: &[u16]) -> String {
    let v: Vec<String> = rs.iter().map(|r| format!("r{r}")).collect();
    format!("[{}]", v.join(", "))
}

/// Renders one instruction.
pub fn disasm_instr(i: &Instr) -> String {
    use Instr::*;
    match i {
        ConstI(d, v) => format!("r{d} <- const {v}"),
        ConstNull(d) => format!("r{d} <- null"),
        ConstPool(d, ix) => format!("r{d} <- pool[{ix}]"),
        Mov(d, s) => format!("r{d} <- r{s}"),
        Bin(k, d, a, b) => format!("r{d} <- r{a} {} r{b}", bin_op(*k)),
        Neg(d, a) => format!("r{d} <- -r{a}"),
        Not(d, a) => format!("r{d} <- !r{a}"),
        EqRR(d, a, b) => format!("r{d} <- r{a} == r{b}"),
        EqClos(d, a, b) => format!("r{d} <- r{a} ==clos r{b}"),
        Jump(off) => format!("jump {off:+}"),
        BrFalse(c, off) => format!("br_false r{c} {off:+}"),
        BrTrue(c, off) => format!("br_true r{c} {off:+}"),
        Call { func, args, rets } => format!("call f{func} {} -> {}", regs(args), regs(rets)),
        CallVirt { slot, site, args, rets } => {
            format!("call_virt slot={slot} ic#{site} {} -> {}", regs(args), regs(rets))
        }
        CallClos { clos, args, rets } => {
            format!("call_clos r{clos} {} -> {}", regs(args), regs(rets))
        }
        CallBuiltin { b, args, rets } => {
            format!("call_builtin {b:?} {} -> {}", regs(args), regs(rets))
        }
        MakeClos { dst, func, recv } => match recv {
            Some(r) => format!("r{dst} <- closure f{func} bound r{r}"),
            None => format!("r{dst} <- closure f{func}"),
        },
        MakeClosVirt { dst, slot, recv } => {
            format!("r{dst} <- closure vtable[{slot}] bound r{recv}")
        }
        NewObject { dst, class } => format!("r{dst} <- new class#{class}"),
        NewArray { dst, len, nullable } => {
            format!("r{dst} <- new array[r{len}]{}", if *nullable { " null-init" } else { "" })
        }
        ArrayLit { dst, elems } => format!("r{dst} <- array {}", regs(elems)),
        ArrayLen { dst, arr } => format!("r{dst} <- len r{arr}"),
        ArrayGet { dst, arr, idx } => format!("r{dst} <- r{arr}[r{idx}]"),
        ArraySet { arr, idx, val } => format!("r{arr}[r{idx}] <- r{val}"),
        ArraySetRef { arr, idx, val } => format!("r{arr}[r{idx}] <- r{val} !barrier"),
        FieldGet { dst, obj, slot } => format!("r{dst} <- r{obj}.{slot}"),
        FieldSet { obj, slot, val } => format!("r{obj}.{slot} <- r{val}"),
        FieldSetRef { obj, slot, val } => format!("r{obj}.{slot} <- r{val} !barrier"),
        GlobalGet { dst, g } => format!("r{dst} <- g{g}"),
        GlobalSet { g, src } => format!("g{g} <- r{src}"),
        ClassQuery { dst, obj, lo, hi } => format!("r{dst} <- r{obj} instanceof [{lo}..{hi}]"),
        ClassCast { obj, lo, hi } => format!("checkcast r{obj} [{lo}..{hi}]"),
        ClosQuery { dst, clos, test } => format!("r{dst} <- r{clos} isfunc test#{test}"),
        ClosCast { clos, test } => format!("checkfunc r{clos} test#{test}"),
        IntToByte { dst, src } => format!("r{dst} <- byte(r{src})"),
        CheckNull(r) => format!("checknull r{r}"),
        IsNull(d, v) => format!("r{d} <- r{v} == null"),
        Ret(rs) => format!("ret {}", regs(rs)),
        Trap(x) => format!("trap {x}"),
        BinI { k, dst, a, imm } => format!("r{dst} <- r{a} {} #{imm}", bin_op(*k)),
        IncLocal { r, imm } => format!("r{r} <- r{r} + #{imm}"),
        CmpBr { k, a, b, off, expect } => {
            format!("br if (r{a} {} r{b}) == {expect} {off:+}", bin_op(*k))
        }
        CmpBrI { k, a, imm, off, expect } => {
            format!("br if (r{a} {} #{imm}) == {expect} {off:+}", bin_op(*k))
        }
        EqBr { a, b, off, expect } => format!("br if (r{a} == r{b}) == {expect} {off:+}"),
        NullBr { v, off, expect } => format!("br if (r{v} == null) == {expect} {off:+}"),
        FieldGetRet { obj, slot } => format!("ret r{obj}.{slot}"),
        GlobalBin { k, dst, g, b } => format!("r{dst} <- g{g} {} r{b}", bin_op(*k)),
        GlobalAccum { k, g, b } => format!("g{g} <- g{g} {} r{b}", bin_op(*k)),
    }
}

fn inl_op(op: &crate::bytecode::InlOp) -> String {
    use crate::bytecode::InlOp;
    match op {
        InlOp::Arg(p) => format!("arg{p}"),
        InlOp::Const(c) => format!("const {c}"),
        InlOp::Bin(k, a, b) => format!("arg{a} {} arg{b}", bin_op(*k)),
        InlOp::BinI(k, a, imm) => format!("arg{a} {} #{imm}", bin_op(*k)),
        InlOp::Field(slot, obj) => format!("arg{obj}.{slot}"),
    }
}

/// Renders a whole program: classes, globals, and every function.
pub fn disasm(p: &VmProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; {} functions, {} classes, {} globals, {} instructions",
        p.funcs.len(),
        p.classes.len(),
        p.global_count,
        p.code_size()
    );
    for (i, c) in p.classes.iter().enumerate() {
        let vt: Vec<String> = c.vtable.iter().map(|f| format!("f{f}")).collect();
        let _ = writeln!(
            out,
            "class#{i} {} fields={} pre=[{}..{}] vtable=[{}]",
            c.name,
            c.field_count,
            c.pre,
            c.max_desc,
            vt.join(", ")
        );
    }
    for (i, f) in p.funcs.iter().enumerate() {
        let _ = writeln!(
            out,
            "\nf{i} {} (params={}, regs={}, rets={}):",
            f.name, f.param_count, f.reg_count, f.ret_count
        );
        for (pc, instr) in f.code.iter().enumerate() {
            let _ = writeln!(out, "  {pc:4}  {}", disasm_instr(instr));
        }
    }
    out
}

/// Renders two variants of the same program function-by-function in two
/// columns — `vglc disasm`'s before/after-fusion view. `before` and `after`
/// must have the same function list (fusion rewrites bodies in place).
pub fn side_by_side(before: &VmProgram, after: &VmProgram) -> String {
    assert_eq!(before.funcs.len(), after.funcs.len(), "same program, two variants");
    const COL: usize = 38;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; {} functions; {} instructions unfused, {} fused",
        before.funcs.len(),
        before.code_size(),
        after.code_size()
    );
    let _ = writeln!(out, "; {:<COL$} | -- fused --", "-- unfused --");
    for (i, (bf, af)) in before.funcs.iter().zip(after.funcs.iter()).enumerate() {
        let _ = writeln!(
            out,
            "\nf{i} {} (params={}, regs={}, rets={}):",
            bf.name, bf.param_count, bf.reg_count, bf.ret_count
        );
        let rows = bf.code.len().max(af.code.len());
        for pc in 0..rows {
            let left = bf
                .code
                .get(pc)
                .map(|x| format!("{pc:4}  {}", disasm_instr(x)))
                .unwrap_or_default();
            let right = af
                .code
                .get(pc)
                .map(|x| format!("{pc:4}  {}", disasm_instr(x)))
                .unwrap_or_default();
            let _ = writeln!(out, "  {left:<COL$} | {right}");
        }
    }
    out
}

/// Renders every function that tiered up as a baseline | tiered
/// two-column view — `vglc disasm --tiered`. The left column is the fused
/// code the [`crate::TierState`] runs. The right column is the same code
/// with each speculated `CallVirt` shown as what it now performs: a
/// `call_guard` (a direct call behind a receiver-class guard) or a
/// `call_inline` (the callee's body in place of the call), marked with the
/// site's own pc, where a failing guard goes on as the plain call. `p` must
/// be the program the state was collected against (it supplies the
/// function names).
pub fn tiered_view(p: &VmProgram, tier: &crate::TierState) -> String {
    const COL: usize = 38;
    let mut out = String::new();
    let tiered: Vec<_> = tier.tiered().collect();
    let _ = writeln!(
        out,
        "; {} of {} functions tiered (threshold {})",
        tiered.len(),
        p.funcs.len(),
        tier.threshold()
    );
    let mega = tier.mega_sites();
    if !mega.is_empty() {
        let sites: Vec<String> = mega.iter().map(|s| format!("ic#{s}")).collect();
        let _ = writeln!(out, "; megamorphic (never re-speculated): {}", sites.join(", "));
    }
    let spec_of = |i: &Instr| match i {
        Instr::CallVirt { site, .. } => tier.spec[*site as usize],
        _ => None,
    };
    for (func, tier_ups) in tiered {
        let code = &tier.funcs()[func as usize].code;
        let (inlines, guards): (Vec<_>, Vec<_>) =
            code.iter().filter_map(spec_of).partition(|s| s.op.is_some());
        let _ = writeln!(
            out,
            "\nf{func} {} (tier-ups={tier_ups}, guards={}, inlines={}):",
            p.funcs[func as usize].name,
            guards.len(),
            inlines.len()
        );
        let _ = writeln!(out, "  {:<COL$} | -- tiered --", "-- baseline --");
        for (pc, i) in code.iter().enumerate() {
            let left = format!("{pc:4}  {}", disasm_instr(i));
            let right = match (i, spec_of(i)) {
                (Instr::CallVirt { site, args, rets, .. }, Some(s)) => match s.op {
                    Some(op) => format!(
                        "call_inline class#{} ic#{site} {} {} -> {} !deopt@{pc}",
                        s.class,
                        inl_op(&op),
                        regs(args),
                        regs(rets)
                    ),
                    None => format!(
                        "call_guard class#{} f{} ic#{site} {} -> {} !deopt@{pc}",
                        s.class,
                        s.func,
                        regs(args),
                        regs(rets)
                    ),
                },
                _ => disasm_instr(i),
            };
            let _ = writeln!(out, "  {left:<COL$} | {pc:4}  {right}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{VmFunc, VmProgram};

    #[test]
    fn disasm_renders_every_instruction_kind() {
        use vgl_ir::ops::Exception;
        use Instr::*;
        let instrs = vec![
            ConstI(0, 5),
            ConstNull(1),
            ConstPool(2, 0),
            Mov(0, 1),
            Bin(BinKind::Add, 0, 1, 2),
            Neg(0, 1),
            Not(0, 1),
            EqRR(0, 1, 2),
            EqClos(0, 1, 2),
            Jump(3),
            BrFalse(0, -2),
            BrTrue(0, 2),
            Call { func: 0, args: vec![1], rets: vec![2] },
            CallVirt { slot: 0, site: 0, args: vec![1], rets: vec![] },
            CallClos { clos: 0, args: vec![], rets: vec![1] },
            CallBuiltin { b: vgl_ir::Builtin::Ln, args: vec![], rets: vec![] },
            MakeClos { dst: 0, func: 1, recv: Some(2) },
            MakeClosVirt { dst: 0, slot: 1, recv: 2 },
            NewObject { dst: 0, class: 1 },
            NewArray { dst: 0, len: 1, nullable: true },
            ArrayLit { dst: 0, elems: vec![1, 2] },
            ArrayLen { dst: 0, arr: 1 },
            ArrayGet { dst: 0, arr: 1, idx: 2 },
            ArraySet { arr: 0, idx: 1, val: 2 },
            FieldGet { dst: 0, obj: 1, slot: 2 },
            FieldSet { obj: 0, slot: 1, val: 2 },
            GlobalGet { dst: 0, g: 1 },
            GlobalSet { g: 0, src: 1 },
            ClassQuery { dst: 0, obj: 1, lo: 2, hi: 3 },
            ClassCast { obj: 0, lo: 1, hi: 2 },
            ClosQuery { dst: 0, clos: 1, test: 0 },
            ClosCast { clos: 0, test: 0 },
            IntToByte { dst: 0, src: 1 },
            CheckNull(0),
            IsNull(0, 1),
            Ret(vec![0]),
            Trap(Exception::TypeCheck),
            BinI { k: BinKind::Add, dst: 0, a: 1, imm: 3 },
            IncLocal { r: 0, imm: 1 },
            CmpBr { k: BinKind::Lt, a: 0, b: 1, off: -2, expect: true },
            CmpBrI { k: BinKind::Ge, a: 0, imm: 10, off: 2, expect: false },
            EqBr { a: 0, b: 1, off: 1, expect: true },
            NullBr { v: 0, off: 1, expect: false },
            FieldGetRet { obj: 0, slot: 1 },
            GlobalBin { k: BinKind::Add, dst: 0, g: 1, b: 2 },
            GlobalAccum { k: BinKind::Add, g: 0, b: 1 },
        ];
        for i in &instrs {
            assert!(!disasm_instr(i).is_empty());
        }
        let p = VmProgram {
            funcs: vec![VmFunc {
                name: "f".into(),
                param_count: 0,
                reg_count: 3,
                ret_count: 1,
                code: instrs,
            }],
            ..VmProgram::default()
        };
        let text = disasm(&p);
        assert!(text.contains("f0 f"));
        assert!(text.contains("trap !TypeCheckException"));
    }
}
