//! Lowering: normalized IR → bytecode.
//!
//! Requires a module that has been through `monomorphize` and `normalize`
//! (the [`vgl_ir::check_normalized`] invariants). Every method becomes one
//! [`VmFunc`]; first-class constructors, operators, intrinsics, and array
//! constructors become small synthesized wrapper functions.

use std::collections::HashMap;

use crate::bytecode::*;
use vgl_ir::ops::Exception;
use vgl_ir::{Body, Builtin, Expr, ExprKind, MethodKind, Module, Oper, Stmt};
use vgl_types::{ClassId, Type, TypeKind, TypeStore};

/// Compiles a normalized module to bytecode.
///
/// # Panics
/// Panics when the module violates the normalized-form invariants; run
/// [`vgl_ir::check_normalized`] first for a friendly report.
pub fn lower(module: &Module) -> VmProgram {
    lower_reusing(module, None).0
}

/// One shared-allocator side effect of lowering a method body, in the
/// order it happened. A spliced method replays its recorded demands
/// through the same memoized allocators instead of re-lowering its body,
/// which reproduces the cold compile's function-append and
/// closure-test-id history exactly: a demand that *allocated* at capture
/// time allocates again (at the same position in the program, because
/// every earlier demand was also replayed), and a demand that was a memo
/// hit is a memo hit again.
#[derive(Clone, Debug)]
pub enum Demand {
    /// Constructor wrapper for a first-class `C.new`.
    Ctor(ClassId),
    /// Operator wrapper for a first-class operator.
    Op(Oper),
    /// Builtin wrapper for a first-class `System.*`.
    Builtin(Builtin),
    /// Array-constructor wrapper for `Array<elem>.new`.
    ArrayNew(Type),
    /// Closure admissibility test against the function type; the second
    /// field is the test id the allocator returned at capture time, so a
    /// splice can map the cached code's `test` operands to their current
    /// ids.
    ClosTest(Type, u32),
}

/// One method's compiled artifact in relocatable form, as captured by
/// [`SpliceRecord::capture`]: the lowered and (when fusion was on) fused
/// code of one optimized body. Its program-indexed operands are
/// positional: `CallVirt` site ids and `ConstPool` ids are dense, assigned
/// in lowering order, so they relocate by the delta between the
/// capture-time base and the splice-time base; `ClosQuery`/`ClosCast` test
/// ids are memoized by type and map through the demand replay. Function,
/// class, global, field-slot and vtable-slot operands are embedded
/// verbatim — that is only sound between modules with equal
/// `vgl_passes::context_digest`s, which is the caller's contract.
#[derive(Clone, Debug)]
pub struct SpliceFunc {
    /// Parameter registers.
    pub param_count: usize,
    /// Frame size in registers.
    pub reg_count: usize,
    /// Return value count.
    pub ret_count: usize,
    /// Final (fused) code with capture-time operand bases.
    pub code: Vec<Instr>,
    /// `next_virt_site` when this method's body started lowering.
    pub site_base: u32,
    /// `CallVirt` sites the body allocated.
    pub site_count: u32,
    /// `program.pool.len()` when this method's body started lowering.
    pub pool_base: u32,
    /// The pool entries the body allocated, in order.
    pub pool: Vec<Vec<u8>>,
    /// Shared-allocator demands, in order (see [`Demand`]).
    pub demands: Vec<Demand>,
}

/// Per-method reuse decisions for [`lower_reusing`]: `funcs[i]`
/// is `Some` when method `i`'s artifact from a context-compatible earlier
/// compile should be spliced instead of lowered and fused.
#[derive(Clone, Default)]
pub struct ReusePlan {
    /// One slot per module method.
    pub funcs: Vec<Option<std::sync::Arc<SpliceFunc>>>,
}

/// Rewrites positional operands in relocatable cached code: dense
/// `CallVirt` site ids and `ConstPool` ids shift by their base deltas; memoized `ClosQuery`/`ClosCast` test ids map
/// through the demand replay's old → new table. Every other operand kind
/// (functions, classes, globals, field and vtable slots, registers) is
/// context-stable and passes through untouched.
fn relocate_code(
    code: &mut [Instr],
    site_delta: i64,
    pool_delta: i64,
    tests: &HashMap<u32, u32>,
) {
    let shift = |v: &mut u32, d: i64| {
        *v = u32::try_from(i64::from(*v) + d).expect("relocated index in range");
    };
    for ins in code {
        match ins {
            Instr::ConstPool(_, ix) => shift(ix, pool_delta),
            Instr::CallVirt { site, .. } => shift(site, site_delta),
            Instr::ClosQuery { test, .. } | Instr::ClosCast { test, .. } => {
                *test = *tests.get(test).expect("clos test recorded in demands");
            }
            _ => {}
        }
    }
}

/// Where one freshly lowered method's program-indexed operands started and
/// which shared allocators it touched — everything a [`SpliceFunc`] needs
/// besides the final code, which exists only once the program is fused.
#[derive(Clone, Debug)]
pub struct SpliceRecord {
    site_base: u32,
    site_count: u32,
    pool_base: u32,
    pool_count: u32,
    demands: Vec<Demand>,
}

impl SpliceRecord {
    /// The relocatable artifact for method `func` of the finished (fused,
    /// when fusion is on) `program` it was lowered into.
    pub fn capture(self, program: &VmProgram, func: usize) -> SpliceFunc {
        let f = &program.funcs[func];
        let pool = self.pool_base as usize..(self.pool_base + self.pool_count) as usize;
        SpliceFunc {
            param_count: f.param_count,
            reg_count: f.reg_count,
            ret_count: f.ret_count,
            code: f.code.clone(),
            site_base: self.site_base,
            site_count: self.site_count,
            pool_base: self.pool_base,
            pool: program.pool[pool].to_vec(),
            demands: self.demands,
        }
    }
}

/// [`lower`] with cross-compile artifact reuse, the daemon's warm path.
/// Without a plan this is plain lowering and returns no records. With one,
/// methods with a [`ReusePlan`] entry are **spliced**: their cached final
/// code is relocated into the program without re-lowering the body. That
/// code is already fused, so the caller must not fuse it again. Every other
/// method is lowered exactly as [`lower`] would and gets a [`SpliceRecord`];
/// [`SpliceRecord::capture`] turns it into a store entry once the program
/// is final. Records then come one per module method, `None` for spliced
/// ones.
///
/// After the non-spliced functions are fused, the program is bit-identical
/// to `lower` + [`crate::fuse::fuse_cfg`] on the same module, provided
/// every plan entry was captured from a compile whose module had the same
/// `vgl_passes::context_digest` and whose method had the same
/// `vgl_passes::cache::method_fingerprint`, both taken on the optimized
/// module. Lowering and fusion of a method read only its own body and what
/// the digest covers, and the shared allocators replay through
/// [`Demand`]s. The serving determinism suite pins this equivalence across
/// cold, warm, and concurrent compiles.
pub fn lower_reusing(
    module: &Module,
    plan: Option<&ReusePlan>,
) -> (VmProgram, Vec<Option<SpliceRecord>>) {
    let mut lw = Lower::new(module);
    lw.prepare();
    let mut records = Vec::new();
    for i in 0..module.methods.len() {
        let Some(plan) = plan else {
            lw.compile_method(i);
            continue;
        };
        if let Some(e) = plan.funcs.get(i).and_then(Option::as_ref) {
            lw.splice_method(i, e);
            records.push(None);
            continue;
        }
        let site_base = lw.next_virt_site;
        let pool_base = lw.program.pool.len() as u32;
        lw.recording = true;
        lw.compile_method(i);
        lw.recording = false;
        records.push(Some(SpliceRecord {
            site_base,
            site_count: lw.next_virt_site - site_base,
            pool_base,
            pool_count: lw.program.pool.len() as u32 - pool_base,
            demands: std::mem::take(&mut lw.demand_log),
        }));
    }
    lw.finalize();
    (lw.program, records)
}

struct Lower<'m> {
    module: &'m Module,
    store: TypeStore,
    program: VmProgram,
    /// Wrapper caches.
    ctor_wrappers: HashMap<ClassId, FuncId>,
    op_wrappers: HashMap<Oper, FuncId>,
    builtin_wrappers: HashMap<Builtin, FuncId>,
    arraynew_wrappers: HashMap<Type, FuncId>,
    /// Function signatures for closure tests: (param types, ret type).
    func_sigs: Vec<(Vec<Type>, Type)>,
    clos_test_cache: HashMap<Type, u32>,
    /// Next `CallVirt` inline-cache site index.
    next_virt_site: u32,
    /// Shared-allocator demand log for the method currently lowering
    /// (captured by [`lower_reusing`], empty otherwise).
    demand_log: Vec<Demand>,
    /// Whether allocator calls append to `demand_log`.
    recording: bool,
}

impl<'m> Lower<'m> {
    fn new(module: &'m Module) -> Lower<'m> {
        Lower {
            module,
            store: module.store.clone(),
            program: VmProgram::default(),
            ctor_wrappers: HashMap::new(),
            op_wrappers: HashMap::new(),
            builtin_wrappers: HashMap::new(),
            arraynew_wrappers: HashMap::new(),
            func_sigs: Vec::new(),
            clos_test_cache: HashMap::new(),
            next_virt_site: 0,
            demand_log: Vec::new(),
            recording: false,
        }
    }

    fn note(&mut self, d: Demand) {
        if self.recording {
            self.demand_log.push(d);
        }
    }

    /// Replays a spliced method's demand log through the shared memoized
    /// allocators (see [`Demand`]); returns the old → new closure-test id
    /// map for [`relocate_code`].
    fn replay_demands(&mut self, demands: &[Demand]) -> HashMap<u32, u32> {
        let mut tests = HashMap::new();
        for d in demands {
            match *d {
                Demand::Ctor(c) => {
                    self.ctor_wrapper(c);
                }
                Demand::Op(op) => {
                    self.op_wrapper(op);
                }
                Demand::Builtin(b) => {
                    self.builtin_wrapper(b);
                }
                Demand::ArrayNew(t) => {
                    self.arraynew_wrapper(t);
                }
                Demand::ClosTest(t, old) => {
                    let new = self.clos_test(t);
                    tests.insert(old, new);
                }
            }
        }
        tests
    }

    /// Installs a cached artifact into method `i`'s reserved slot,
    /// reproducing everything the cold compile of this body would have
    /// done to shared program state: advance the site counter, append the
    /// body's pool entries, and replay its allocator demands. The cached
    /// code is then relocated to the current bases. (Site/pool/function
    /// allocation use independent counters, so replaying demands as a
    /// prefix instead of interleaved with body emission lands every id in
    /// the same place.)
    fn splice_method(&mut self, i: usize, e: &SpliceFunc) {
        let site_delta = i64::from(self.next_virt_site) - i64::from(e.site_base);
        let pool_delta = self.program.pool.len() as i64 - i64::from(e.pool_base);
        self.next_virt_site += e.site_count;
        self.program.pool.extend(e.pool.iter().cloned());
        let watermark = (self.next_virt_site, self.program.pool.len());
        let tests = self.replay_demands(&e.demands);
        debug_assert_eq!(
            watermark,
            (self.next_virt_site, self.program.pool.len()),
            "demand replay must not allocate sites or pool entries"
        );
        let mut code = e.code.clone();
        relocate_code(&mut code, site_delta, pool_delta, &tests);
        self.program.funcs[i] = VmFunc {
            name: self.module.methods[i].name.clone(),
            param_count: e.param_count,
            reg_count: e.reg_count,
            ret_count: e.ret_count,
            code,
        };
    }

    /// Everything before body compilation: class layout and one reserved
    /// function per method, in order, so MethodId == FuncId.
    fn prepare(&mut self) {
        self.assign_class_ranges();
        for m in &self.module.methods {
            let ret_count = self.store.flatten(m.ret).len();
            let params: Vec<Type> = m.locals[..m.param_count].iter().map(|l| l.ty).collect();
            self.func_sigs.push((params, m.ret));
            self.program.funcs.push(VmFunc {
                name: m.name.clone(),
                param_count: m.param_count,
                reg_count: m.param_count,
                ret_count,
                code: vec![Instr::Trap(Exception::Unimplemented)],
            });
        }
        // Class table (field counts, null masks, vtables).
        for (i, c) in self.module.classes.iter().enumerate() {
            let field_count = self.module.object_size(ClassId(i as u32));
            let mut mask = vec![false; field_count];
            let mut cur = Some(ClassId(i as u32));
            while let Some(cid) = cur {
                for f in &self.module.class(cid).fields {
                    mask[f.slot] = self.store.is_nullable(f.ty);
                }
                cur = self.module.class(cid).parent;
            }
            self.program.classes[i].field_count = field_count;
            self.program.classes[i].field_nullable = mask;
            self.program.classes[i].vtable = c.vtable.iter().map(|m| m.0).collect();
        }
    }

    /// Compiles method `i`'s body into its reserved slot. Must be called
    /// for every method index in ascending order (the wrapper caches are
    /// order-sensitive); a spliced method takes its turn through
    /// [`Lower::splice_method`] instead.
    fn compile_method(&mut self, i: usize) {
        let module = self.module;
        let m = &module.methods[i];
        if let Some(body) = &m.body {
            let f = self.compile_body(m, body);
            self.program.funcs[i] = f;
        } else if m.kind == MethodKind::Abstract {
            // Keep the trap body.
        }
    }

    /// Everything after body compilation: global slots and initializer
    /// functions, entry point, inline-cache site count, frame analysis.
    fn finalize(&mut self) {
        self.program.global_count = self.module.globals.len();
        self.program.global_nullable = self
            .module
            .globals
            .iter()
            .map(|g| self.store.is_nullable(g.ty))
            .collect();
        for (gi, g) in self.module.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let fid = self.compile_init(&g.name, init, &g.locals);
                self.program.global_inits.push((gi as u32, fid));
            }
        }
        self.program.main = self.module.main.map(|m| m.0);
        self.program.virt_sites = self.next_virt_site as usize;
        self.program.max_frame_regs =
            self.program.funcs.iter().map(|f| f.reg_count).max().unwrap_or(0);
    }

    fn assign_class_ranges(&mut self) {
        let n = self.module.classes.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, c) in self.module.classes.iter().enumerate() {
            match c.parent {
                Some(p) => children[p.index()].push(i),
                None => roots.push(i),
            }
            self.program.classes.push(VmClass {
                name: c.name.clone(),
                field_count: 0,
                field_nullable: Vec::new(),
                vtable: Vec::new(),
                pre: 0,
                max_desc: 0,
            });
        }
        let mut next = 0u32;
        let mut stack: Vec<(usize, bool)> = roots.into_iter().map(|r| (r, false)).collect();
        // Iterative DFS assigning preorder + max-descendant numbers.
        let mut order = Vec::new();
        while let Some((i, done)) = stack.pop() {
            if done {
                let max = self.program.classes[i]
                    .pre
                    .max(children[i].iter().map(|&c| self.program.classes[c].max_desc).max().unwrap_or(0));
                self.program.classes[i].max_desc = max;
                continue;
            }
            self.program.classes[i].pre = next;
            next += 1;
            order.push(i);
            stack.push((i, true));
            for &c in &children[i] {
                stack.push((c, false));
            }
        }
    }

    // ---- wrappers ------------------------------------------------------------

    fn add_func(&mut self, f: VmFunc, params: Vec<Type>, ret: Type) -> FuncId {
        let id = self.program.funcs.len() as FuncId;
        self.func_sigs.push((params, ret));
        self.program.funcs.push(f);
        id
    }

    fn ctor_wrapper(&mut self, class: ClassId) -> FuncId {
        self.note(Demand::Ctor(class));
        if let Some(&f) = self.ctor_wrappers.get(&class) {
            return f;
        }
        let ctor = self.module.class(class).ctor.expect("class has ctor");
        let cm = self.module.method(ctor);
        let nparams = cm.param_count - 1;
        let mut code = Vec::new();
        let obj: Reg = nparams as Reg;
        code.push(Instr::NewObject { dst: obj, class: class.0 });
        let mut args = vec![obj];
        args.extend((0..nparams as Reg).collect::<Vec<Reg>>());
        code.push(Instr::Call { func: ctor.0, args, rets: vec![] });
        code.push(Instr::Ret(vec![obj]));
        let params: Vec<Type> = cm.locals[1..cm.param_count].iter().map(|l| l.ty).collect();
        let ret = self.store.class(class, vec![]);
        let f = VmFunc {
            name: format!("<new:{}>", self.module.class(class).name),
            param_count: nparams,
            reg_count: nparams + 1,
            ret_count: 1,
            code,
        };
        let id = self.add_func(f, params, ret);
        self.ctor_wrappers.insert(class, id);
        id
    }

    fn op_wrapper(&mut self, op: Oper) -> FuncId {
        self.note(Demand::Op(op));
        if let Some(&f) = self.op_wrappers.get(&op) {
            return f;
        }
        let (arity, code, params, ret): (usize, Vec<Instr>, Vec<Type>, Type) = {
            let int = self.store.int;
            let byte = self.store.byte;
            let bool_ = self.store.bool_;
            let bin = |k: BinKind, pt: Type, rt: Type| {
                (2, vec![Instr::Bin(k, 2, 0, 1), Instr::Ret(vec![2])], vec![pt, pt], rt)
            };
            match op {
                Oper::IntAdd => bin(BinKind::Add, int, int),
                Oper::IntSub => bin(BinKind::Sub, int, int),
                Oper::IntMul => bin(BinKind::Mul, int, int),
                Oper::IntDiv => bin(BinKind::Div, int, int),
                Oper::IntMod => bin(BinKind::Mod, int, int),
                Oper::IntAnd => bin(BinKind::And, int, int),
                Oper::IntOr => bin(BinKind::Or, int, int),
                Oper::IntXor => bin(BinKind::Xor, int, int),
                Oper::IntShl => bin(BinKind::Shl, int, int),
                Oper::IntShr => bin(BinKind::Shr, int, int),
                Oper::IntLt => bin(BinKind::Lt, int, bool_),
                Oper::IntLe => bin(BinKind::Le, int, bool_),
                Oper::IntGt => bin(BinKind::Gt, int, bool_),
                Oper::IntGe => bin(BinKind::Ge, int, bool_),
                Oper::ByteLt => bin(BinKind::Lt, byte, bool_),
                Oper::ByteLe => bin(BinKind::Le, byte, bool_),
                Oper::ByteGt => bin(BinKind::Gt, byte, bool_),
                Oper::ByteGe => bin(BinKind::Ge, byte, bool_),
                Oper::IntNeg => (
                    1,
                    vec![Instr::Neg(1, 0), Instr::Ret(vec![1])],
                    vec![int],
                    int,
                ),
                Oper::BoolNot => (
                    1,
                    vec![Instr::Not(1, 0), Instr::Ret(vec![1])],
                    vec![bool_],
                    bool_,
                ),
                Oper::Eq(t) | Oper::Ne(t) => {
                    let is_fn = matches!(self.store.kind(t), TypeKind::Function(..));
                    let mut code = vec![if is_fn {
                        Instr::EqClos(2, 0, 1)
                    } else {
                        Instr::EqRR(2, 0, 1)
                    }];
                    if matches!(op, Oper::Ne(_)) {
                        code.push(Instr::Not(2, 2));
                    }
                    code.push(Instr::Ret(vec![2]));
                    (2, code, vec![t, t], bool_)
                }
                Oper::Cast { from, to } | Oper::Query { from, to } => {
                    // Compile through an expression so all cast logic is in
                    // one place.
                    let is_query = matches!(op, Oper::Query { .. });
                    let arg = Expr::new(ExprKind::Local(vgl_ir::LocalId(0)), from);
                    let body = Body {
                        stmts: vec![Stmt::Return(Some(Expr::new(
                            ExprKind::Apply(op, vec![arg]),
                            if is_query { bool_ } else { to },
                        )))],
                    };
                    let m = vgl_ir::Method {
                        name: format!("<op:{op:?}>"),
                        owner: None,
                        is_private: true,
                        kind: MethodKind::Normal,
                        type_params: vec![],
                        param_count: 1,
                        locals: vec![vgl_ir::Local {
                            name: "x".into(),
                            ty: from,
                            mutable: false,
                        }],
                        ret: if is_query { bool_ } else { to },
                        body: None,
                        vtable_index: None,
                    };
                    let f = self.compile_body(&m, &body);
                    let id = self.add_func(f, vec![from], if is_query { bool_ } else { to });
                    self.op_wrappers.insert(op, id);
                    return id;
                }
            }
        };
        let f = VmFunc {
            name: format!("<op:{op:?}>"),
            param_count: arity,
            reg_count: arity + 1,
            ret_count: 1,
            code,
        };
        let id = self.add_func(f, params, ret);
        self.op_wrappers.insert(op, id);
        id
    }

    fn builtin_wrapper(&mut self, b: Builtin) -> FuncId {
        self.note(Demand::Builtin(b));
        if let Some(&f) = self.builtin_wrappers.get(&b) {
            return f;
        }
        let (params, ret): (Vec<Type>, Type) = {
            let s = &mut self.store;
            match b {
                Builtin::Puts | Builtin::Error => (vec![s.string], s.void),
                Builtin::Puti => (vec![s.int], s.void),
                Builtin::Putb => (vec![s.bool_], s.void),
                Builtin::Putc => (vec![s.byte], s.void),
                Builtin::Ln => (vec![], s.void),
                Builtin::Ticks => (vec![], s.int),
            }
        };
        let n = params.len();
        let rets = if ret == self.store.void { vec![] } else { vec![n as Reg] };
        let mut code = vec![Instr::CallBuiltin {
            b,
            args: (0..n as Reg).collect(),
            rets: rets.clone(),
        }];
        code.push(Instr::Ret(rets));
        let f = VmFunc {
            name: format!("<builtin:{b:?}>"),
            param_count: n,
            reg_count: n + 1,
            ret_count: usize::from(ret != self.store.void),
            code,
        };
        let id = self.add_func(f, params, ret);
        self.builtin_wrappers.insert(b, id);
        id
    }

    fn arraynew_wrapper(&mut self, elem: Type) -> FuncId {
        self.note(Demand::ArrayNew(elem));
        if let Some(&f) = self.arraynew_wrappers.get(&elem) {
            return f;
        }
        let int = self.store.int;
        let arr = self.store.array(elem);
        let nullable = self.store.is_nullable(elem);
        let f = VmFunc {
            name: "<arraynew>".into(),
            param_count: 1,
            reg_count: 2,
            ret_count: 1,
            code: vec![
                Instr::NewArray { dst: 1, len: 0, nullable },
                Instr::Ret(vec![1]),
            ],
        };
        let id = self.add_func(f, vec![int], arr);
        self.arraynew_wrappers.insert(elem, id);
        id
    }

    /// Builds (or reuses) a closure admissibility test against function type
    /// `to`.
    fn clos_test(&mut self, to: Type) -> u32 {
        if let Some(&t) = self.clos_test_cache.get(&to) {
            self.note(Demand::ClosTest(to, t));
            return t;
        }
        let n = self.program.funcs.len().max(self.func_sigs.len());
        let mut test = ClosTest {
            allowed_bound: vec![false; n],
            allowed_unbound: vec![false; n],
        };
        let hier = &self.module.hier;
        for (f, (params, ret)) in self.func_sigs.clone().into_iter().enumerate() {
            let unbound_p = self.store.tuple(params.clone());
            let ret_pieces = self.store.flatten(ret);
            let ret_t = self.store.tuple(ret_pieces);
            let unbound = self.store.function(unbound_p, ret_t);
            test.allowed_unbound[f] =
                vgl_types::is_subtype(&mut self.store, hier, unbound, to);
            if !params.is_empty() {
                let bound_p = self.store.tuple(params[1..].to_vec());
                let bound = self.store.function(bound_p, ret_t);
                test.allowed_bound[f] =
                    vgl_types::is_subtype(&mut self.store, hier, bound, to);
            }
        }
        let id = self.program.clos_tests.len() as u32;
        self.program.clos_tests.push(test);
        self.clos_test_cache.insert(to, id);
        self.note(Demand::ClosTest(to, id));
        id
    }

    fn compile_init(&mut self, name: &str, init: &Expr, locals: &[vgl_ir::Local]) -> FuncId {
        let m = vgl_ir::Method {
            name: format!("<init:{name}>"),
            owner: None,
            is_private: true,
            kind: MethodKind::Normal,
            type_params: vec![],
            param_count: 0,
            locals: locals.to_vec(),
            ret: init.ty,
            body: None,
            vtable_index: None,
        };
        let body = Body { stmts: vec![Stmt::Return(Some(init.clone()))] };
        let f = self.compile_body(&m, &body);
        self.add_func(f, vec![], init.ty)
    }

    // ---- body compilation -------------------------------------------------------

    fn compile_body(&mut self, m: &vgl_ir::Method, body: &Body) -> VmFunc {
        let mut fx = FnCx::new(m, &self.store);
        self.stmts(&body.stmts, &mut fx);
        // Implicit return for void fallthrough.
        let ret_count = self.store.flatten(m.ret).len();
        if ret_count == 0 {
            fx.code.push(Instr::Ret(vec![]));
        } else {
            fx.code.push(Instr::Trap(Exception::Unimplemented));
        }
        VmFunc {
            name: m.name.clone(),
            param_count: m.param_count,
            reg_count: fx.max_reg.max(fx.frame_base),
            ret_count,
            code: fx.code,
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], fx: &mut FnCx) {
        for s in stmts {
            self.stmt(s, fx);
        }
    }

    fn stmt(&mut self, s: &Stmt, fx: &mut FnCx) {
        fx.reset_temps();
        match s {
            Stmt::Expr(e) => {
                self.expr_effect(e, fx);
            }
            Stmt::Local(l, init) => {
                let (base, width) = fx.local_regs[l.index()];
                match init {
                    None => {
                        // Default-initialize: null for reference types,
                        // zero otherwise (also covers re-entry into loop
                        // bodies where a previous iteration wrote the slot).
                        let nullable = fx.local_nullable[l.index()];
                        for j in 0..width {
                            if nullable {
                                fx.code.push(Instr::ConstNull(base + j as Reg));
                            } else {
                                fx.code.push(Instr::ConstI(base + j as Reg, 0));
                            }
                        }
                    }
                    Some(e) if width > 1 => {
                        // Boundary multi-value call: rets straight into the
                        // local's register block.
                        let rets: Vec<Reg> = (0..width as Reg).map(|j| base + j).collect();
                        self.compile_call_into(e, rets, fx);
                    }
                    Some(e) => {
                        let r = self.expr(e, fx);
                        if width == 1 {
                            fx.code.push(Instr::Mov(base, r));
                        }
                    }
                }
            }
            Stmt::If(c, t, e) => {
                let cr = self.expr(c, fx);
                let br = fx.emit_placeholder();
                self.stmts(t, fx);
                if e.is_empty() {
                    let end = fx.code.len();
                    fx.patch(br, Instr::BrFalse(cr, (end - br) as i32));
                } else {
                    let jmp = fx.emit_placeholder();
                    let else_start = fx.code.len();
                    fx.patch(br, Instr::BrFalse(cr, (else_start - br) as i32));
                    self.stmts(e, fx);
                    let end = fx.code.len();
                    fx.patch(jmp, Instr::Jump((end - jmp) as i32));
                }
            }
            Stmt::While(c, body) => {
                let start = fx.code.len();
                fx.reset_temps();
                let cr = self.expr(c, fx);
                let exit_br = fx.emit_placeholder();
                fx.loops.push(LoopCx { start, breaks: vec![] });
                self.stmts(body, fx);
                let back = fx.code.len();
                fx.code.push(Instr::Jump(start as i32 - back as i32));
                let end = fx.code.len();
                fx.patch(exit_br, Instr::BrFalse(cr, (end - exit_br) as i32));
                let lp = fx.loops.pop().expect("loop context");
                for b in lp.breaks {
                    fx.patch(b, Instr::Jump((end - b) as i32));
                }
            }
            Stmt::Return(None) => fx.code.push(Instr::Ret(vec![])),
            Stmt::Return(Some(e)) => {
                if let ExprKind::Tuple(pieces) = &e.kind {
                    let regs: Vec<Reg> = pieces.iter().map(|p| self.expr(p, fx)).collect();
                    fx.code.push(Instr::Ret(regs));
                } else if self.store.is_void(e.ty) {
                    self.expr_effect(e, fx);
                    fx.code.push(Instr::Ret(vec![]));
                } else {
                    let r = self.expr(e, fx);
                    fx.code.push(Instr::Ret(vec![r]));
                }
            }
            Stmt::Break => {
                let at = fx.emit_placeholder();
                let li = fx.loops.len() - 1;
                fx.loops[li].breaks.push(at);
            }
            Stmt::Continue => {
                let at = fx.code.len();
                let start = fx.loops.last().expect("loop context").start;
                fx.code.push(Instr::Jump(start as i32 - at as i32));
            }
            Stmt::Block(b) => self.stmts(b, fx),
        }
    }

    /// Compiles an expression for effect only.
    fn expr_effect(&mut self, e: &Expr, fx: &mut FnCx) {
        if self.store.is_void(e.ty) || matches!(self.store.kind(e.ty), TypeKind::Tuple(_)) {
            // Void- or tuple-typed effect (e.g. a multi-value call whose
            // results are dropped).
            match &e.kind {
                ExprKind::CallStatic { .. }
                | ExprKind::CallVirtual { .. }
                | ExprKind::CallClosure { .. }
                | ExprKind::CallBuiltin(..) => {
                    self.compile_call_into(e, vec![], fx);
                    return;
                }
                ExprKind::Unit => return,
                _ => {}
            }
        }
        let _ = self.expr(e, fx);
    }

    /// Compiles a call expression with explicit destination registers.
    fn compile_call_into(&mut self, e: &Expr, rets: Vec<Reg>, fx: &mut FnCx) {
        match &e.kind {
            ExprKind::CallStatic { method, args, .. } => {
                let argr: Vec<Reg> = args.iter().map(|a| self.expr(a, fx)).collect();
                fx.code.push(Instr::Call { func: method.0, args: argr, rets });
            }
            ExprKind::CallVirtual { method, recv, args, .. } => {
                let slot = self
                    .module
                    .method(*method)
                    .vtable_index
                    .expect("virtual call target has a slot") as u32;
                let mut argr = vec![self.expr(recv, fx)];
                argr.extend(args.iter().map(|a| self.expr(a, fx)));
                let site = self.next_virt_site;
                self.next_virt_site += 1;
                fx.code.push(Instr::CallVirt { slot, site, args: argr, rets });
            }
            ExprKind::CallClosure { func, args } => {
                let cr = self.expr(func, fx);
                let argr: Vec<Reg> = args.iter().map(|a| self.expr(a, fx)).collect();
                fx.code.push(Instr::CallClos { clos: cr, args: argr, rets });
            }
            ExprKind::CallBuiltin(b, args) => {
                let argr: Vec<Reg> = args.iter().map(|a| self.expr(a, fx)).collect();
                fx.code.push(Instr::CallBuiltin { b: *b, args: argr, rets });
            }
            other => unreachable!("compile_call_into on non-call {other:?}"),
        }
    }

    /// Compiles a scalar expression, returning its register.
    fn expr(&mut self, e: &Expr, fx: &mut FnCx) -> Reg {
        match &e.kind {
            ExprKind::Int(v) => {
                let d = fx.temp();
                fx.code.push(Instr::ConstI(d, *v as i64));
                d
            }
            ExprKind::Byte(v) => {
                let d = fx.temp();
                fx.code.push(Instr::ConstI(d, *v as i64));
                d
            }
            ExprKind::Bool(v) => {
                let d = fx.temp();
                fx.code.push(Instr::ConstI(d, i64::from(*v)));
                d
            }
            ExprKind::Unit => {
                let d = fx.temp();
                fx.code.push(Instr::ConstI(d, 0));
                d
            }
            ExprKind::Null => {
                let d = fx.temp();
                fx.code.push(Instr::ConstNull(d));
                d
            }
            ExprKind::String(bytes) => {
                let ix = self.program.pool.len() as u32;
                self.program.pool.push(bytes.clone());
                let d = fx.temp();
                fx.code.push(Instr::ConstPool(d, ix));
                d
            }
            ExprKind::Trap(x) => {
                fx.code.push(Instr::Trap(*x));
                fx.temp()
            }
            ExprKind::Local(l) => fx.local_regs[l.index()].0,
            ExprKind::Global(g) => {
                let d = fx.temp();
                fx.code.push(Instr::GlobalGet { dst: d, g: g.0 });
                d
            }
            ExprKind::LocalSet(l, v) => {
                let r = self.expr(v, fx);
                let (base, _) = fx.local_regs[l.index()];
                fx.code.push(Instr::Mov(base, r));
                base
            }
            ExprKind::GlobalSet(g, v) => {
                let r = self.expr(v, fx);
                fx.code.push(Instr::GlobalSet { g: g.0, src: r });
                r
            }
            ExprKind::TupleIndex(b, i) => {
                // Boundary projection of a tuple-typed local.
                let ExprKind::Local(l) = b.kind else {
                    unreachable!("non-boundary tuple projection in lowering");
                };
                let (base, width) = fx.local_regs[l.index()];
                debug_assert!((*i as usize) < width);
                base + *i as Reg
            }
            ExprKind::ArrayLit(es) => {
                let regs: Vec<Reg> = es.iter().map(|x| self.expr(x, fx)).collect();
                let d = fx.temp();
                fx.code.push(Instr::ArrayLit { dst: d, elems: regs });
                d
            }
            ExprKind::ArrayNew(n) => {
                let r = self.expr(n, fx);
                let d = fx.temp();
                let nullable = match self.store.kind(e.ty) {
                    TypeKind::Array(el) => self.store.is_nullable(*el),
                    _ => false,
                };
                fx.code.push(Instr::NewArray { dst: d, len: r, nullable });
                d
            }
            ExprKind::ArrayLen(a) => {
                let r = self.expr(a, fx);
                let d = fx.temp();
                fx.code.push(Instr::ArrayLen { dst: d, arr: r });
                d
            }
            ExprKind::ArrayGet(a, i) => {
                let ar = self.expr(a, fx);
                let ir = self.expr(i, fx);
                let d = fx.temp();
                fx.code.push(Instr::ArrayGet { dst: d, arr: ar, idx: ir });
                d
            }
            ExprKind::ArraySet(a, i, v) => {
                let ar = self.expr(a, fx);
                let ir = self.expr(i, fx);
                let vr = self.expr(v, fx);
                // Reference-typed stores carry the generational write
                // barrier; scalar stores stay barrier-free.
                if self.store.is_nullable(v.ty) {
                    fx.code.push(Instr::ArraySetRef { arr: ar, idx: ir, val: vr });
                } else {
                    fx.code.push(Instr::ArraySet { arr: ar, idx: ir, val: vr });
                }
                vr
            }
            ExprKind::FieldGet(o, fref) => {
                let or = self.expr(o, fx);
                let d = fx.temp();
                fx.code.push(Instr::FieldGet { dst: d, obj: or, slot: fref.slot as u32 });
                d
            }
            ExprKind::FieldSet(o, fref, v) => {
                let or = self.expr(o, fx);
                let vr = self.expr(v, fx);
                // Reference-typed stores carry the generational write
                // barrier; scalar stores stay barrier-free.
                if self.store.is_nullable(v.ty) {
                    fx.code.push(Instr::FieldSetRef { obj: or, slot: fref.slot as u32, val: vr });
                } else {
                    fx.code.push(Instr::FieldSet { obj: or, slot: fref.slot as u32, val: vr });
                }
                vr
            }
            ExprKind::New { class, args, .. } => {
                let d = fx.temp();
                fx.code.push(Instr::NewObject { dst: d, class: class.0 });
                if let Some(ctor) = self.module.class(*class).ctor {
                    let mut argr = vec![d];
                    argr.extend(args.iter().map(|a| self.expr(a, fx)));
                    fx.code.push(Instr::Call { func: ctor.0, args: argr, rets: vec![] });
                }
                d
            }
            ExprKind::CallStatic { .. }
            | ExprKind::CallVirtual { .. }
            | ExprKind::CallClosure { .. }
            | ExprKind::CallBuiltin(..) => {
                let width = self.store.flatten(e.ty).len();
                debug_assert!(width <= 1, "multi-value call in scalar position");
                let d = fx.temp();
                let rets = if width == 1 { vec![d] } else { vec![] };
                self.compile_call_into(e, rets, fx);
                d
            }
            ExprKind::BindMethod { method, recv, .. } => {
                let rr = self.expr(recv, fx);
                let d = fx.temp();
                match self.module.method(*method).vtable_index {
                    Some(slot) => {
                        fx.code.push(Instr::MakeClosVirt { dst: d, slot: slot as u32, recv: rr });
                    }
                    None => {
                        fx.code.push(Instr::CheckNull(rr));
                        fx.code.push(Instr::MakeClos { dst: d, func: method.0, recv: Some(rr) });
                    }
                }
                d
            }
            ExprKind::FuncRef { method, .. } => {
                let d = fx.temp();
                fx.code.push(Instr::MakeClos { dst: d, func: method.0, recv: None });
                d
            }
            ExprKind::CtorRef { class, .. } => {
                let f = self.ctor_wrapper(*class);
                let d = fx.temp();
                fx.code.push(Instr::MakeClos { dst: d, func: f, recv: None });
                d
            }
            ExprKind::ArrayNewRef { elem } => {
                let f = self.arraynew_wrapper(*elem);
                let d = fx.temp();
                fx.code.push(Instr::MakeClos { dst: d, func: f, recv: None });
                d
            }
            ExprKind::BuiltinRef(b) => {
                let f = self.builtin_wrapper(*b);
                let d = fx.temp();
                fx.code.push(Instr::MakeClos { dst: d, func: f, recv: None });
                d
            }
            ExprKind::OpClosure(op) => {
                let f = self.op_wrapper(*op);
                let d = fx.temp();
                fx.code.push(Instr::MakeClos { dst: d, func: f, recv: None });
                d
            }
            ExprKind::Apply(op, args) => self.apply(*op, args, fx),
            ExprKind::And(a, b) => {
                let d = fx.temp();
                let ar = self.expr(a, fx);
                fx.code.push(Instr::Mov(d, ar));
                let br_ix = fx.emit_placeholder();
                let br = self.expr(b, fx);
                fx.code.push(Instr::Mov(d, br));
                let end = fx.code.len();
                fx.patch(br_ix, Instr::BrFalse(d, (end - br_ix) as i32));
                d
            }
            ExprKind::Or(a, b) => {
                let d = fx.temp();
                let ar = self.expr(a, fx);
                fx.code.push(Instr::Mov(d, ar));
                let br_ix = fx.emit_placeholder();
                let br = self.expr(b, fx);
                fx.code.push(Instr::Mov(d, br));
                let end = fx.code.len();
                fx.patch(br_ix, Instr::BrTrue(d, (end - br_ix) as i32));
                d
            }
            ExprKind::Ternary { cond, then, els } => {
                let d = fx.temp();
                let cr = self.expr(cond, fx);
                let br_ix = fx.emit_placeholder();
                let tr = self.expr(then, fx);
                fx.code.push(Instr::Mov(d, tr));
                let jmp = fx.emit_placeholder();
                let else_start = fx.code.len();
                fx.patch(br_ix, Instr::BrFalse(cr, (else_start - br_ix) as i32));
                let er = self.expr(els, fx);
                fx.code.push(Instr::Mov(d, er));
                let end = fx.code.len();
                fx.patch(jmp, Instr::Jump((end - jmp) as i32));
                d
            }
            ExprKind::Tuple(_) => unreachable!("tuple in scalar position after normalization"),
            ExprKind::Let { local, value, body } => {
                let (base, width) = fx.local_regs[local.index()];
                debug_assert_eq!(width, 1, "Let binds scalars after normalization");
                let v = self.expr(value, fx);
                fx.code.push(Instr::Mov(base, v));
                self.expr(body, fx)
            }
        }
    }

    fn apply(&mut self, op: Oper, args: &[Expr], fx: &mut FnCx) -> Reg {
        use Oper::*;
        let bin = |lw: &mut Self, k: BinKind, args: &[Expr], fx: &mut FnCx| {
            let a = lw.expr(&args[0], fx);
            let b = lw.expr(&args[1], fx);
            let d = fx.temp();
            fx.code.push(Instr::Bin(k, d, a, b));
            d
        };
        match op {
            IntAdd => bin(self, BinKind::Add, args, fx),
            IntSub => bin(self, BinKind::Sub, args, fx),
            IntMul => bin(self, BinKind::Mul, args, fx),
            IntDiv => bin(self, BinKind::Div, args, fx),
            IntMod => bin(self, BinKind::Mod, args, fx),
            IntAnd => bin(self, BinKind::And, args, fx),
            IntOr => bin(self, BinKind::Or, args, fx),
            IntXor => bin(self, BinKind::Xor, args, fx),
            IntShl => bin(self, BinKind::Shl, args, fx),
            IntShr => bin(self, BinKind::Shr, args, fx),
            IntLt | ByteLt => bin(self, BinKind::Lt, args, fx),
            IntLe | ByteLe => bin(self, BinKind::Le, args, fx),
            IntGt | ByteGt => bin(self, BinKind::Gt, args, fx),
            IntGe | ByteGe => bin(self, BinKind::Ge, args, fx),
            IntNeg => {
                let a = self.expr(&args[0], fx);
                let d = fx.temp();
                fx.code.push(Instr::Neg(d, a));
                d
            }
            BoolNot => {
                let a = self.expr(&args[0], fx);
                let d = fx.temp();
                fx.code.push(Instr::Not(d, a));
                d
            }
            Eq(t) | Ne(t) => {
                let a = self.expr(&args[0], fx);
                let b = self.expr(&args[1], fx);
                let d = fx.temp();
                if matches!(self.store.kind(t), TypeKind::Function(..)) {
                    fx.code.push(Instr::EqClos(d, a, b));
                } else {
                    fx.code.push(Instr::EqRR(d, a, b));
                }
                if matches!(op, Ne(_)) {
                    fx.code.push(Instr::Not(d, d));
                }
                d
            }
            Cast { from, to } => self.cast(from, to, &args[0], fx),
            Query { from, to } => self.query(from, to, &args[0], fx),
        }
    }

    fn cast(&mut self, from: Type, to: Type, arg: &Expr, fx: &mut FnCx) -> Reg {
        let r = self.expr(arg, fx);
        if from == to {
            return r;
        }
        let fk = self.store.kind(from).clone();
        let tk = self.store.kind(to).clone();
        match (fk, tk) {
            (TypeKind::Int, TypeKind::Byte) => {
                let d = fx.temp();
                fx.code.push(Instr::IntToByte { dst: d, src: r });
                d
            }
            (TypeKind::Byte, TypeKind::Int) => r,
            (TypeKind::Class(..), TypeKind::Class(c2, _)) => {
                let vc = &self.program.classes[c2.index()];
                let (lo, hi) = (vc.pre, vc.max_desc);
                fx.code.push(Instr::ClassCast { obj: r, lo, hi });
                r
            }
            (TypeKind::Function(..), TypeKind::Function(..)) => {
                let t = self.clos_test(to);
                fx.code.push(Instr::ClosCast { clos: r, test: t });
                r
            }
            (TypeKind::Null, _) => r,
            // Everything else is a statically-impossible cast (the optimizer
            // folds these when enabled; without it they reach lowering and
            // must trap at runtime).
            _ => {
                fx.code.push(Instr::Trap(Exception::TypeCheck));
                r
            }
        }
    }

    fn query(&mut self, from: Type, to: Type, arg: &Expr, fx: &mut FnCx) -> Reg {
        let r = self.expr(arg, fx);
        let d = fx.temp();
        if from == to && !self.store.is_nullable(from) {
            fx.code.push(Instr::ConstI(d, 1));
            return d;
        }
        if from == to {
            fx.code.push(Instr::IsNull(d, r));
            fx.code.push(Instr::Not(d, d));
            return d;
        }
        let fk = self.store.kind(from).clone();
        let tk = self.store.kind(to).clone();
        match (fk, tk) {
            (TypeKind::Class(..), TypeKind::Class(c2, _)) => {
                let vc = &self.program.classes[c2.index()];
                let (lo, hi) = (vc.pre, vc.max_desc);
                fx.code.push(Instr::ClassQuery { dst: d, obj: r, lo, hi });
            }
            (TypeKind::Function(..), TypeKind::Function(..)) => {
                let t = self.clos_test(to);
                fx.code.push(Instr::ClosQuery { dst: d, clos: r, test: t });
            }
            _ => {
                fx.code.push(Instr::ConstI(d, 0));
            }
        }
        d
    }
}

struct LoopCx {
    start: usize,
    breaks: Vec<usize>,
}

/// Per-function lowering context.
struct FnCx {
    code: Vec<Instr>,
    /// For each IR local: (base register, width).
    local_regs: Vec<(Reg, usize)>,
    /// For each IR local: whether its default is null.
    local_nullable: Vec<bool>,
    /// First temp register.
    frame_base: usize,
    next_temp: usize,
    max_reg: usize,
    loops: Vec<LoopCx>,
}

impl FnCx {
    fn new(m: &vgl_ir::Method, store: &TypeStore) -> FnCx {
        let mut local_regs = Vec::with_capacity(m.locals.len());
        let mut local_nullable = Vec::with_capacity(m.locals.len());
        let mut next = 0usize;
        for l in &m.locals {
            let width = match store.kind(l.ty) {
                TypeKind::Tuple(es) => es.len(),
                TypeKind::Void => 1, // keep a slot for simplicity
                _ => 1,
            };
            local_regs.push((next as Reg, width));
            local_nullable.push(store.is_nullable(l.ty));
            next += width;
        }
        FnCx {
            code: Vec::new(),
            local_regs,
            local_nullable,
            frame_base: next,
            next_temp: next,
            max_reg: next,
            loops: Vec::new(),
        }
    }

    fn temp(&mut self) -> Reg {
        let r = self.next_temp;
        self.next_temp += 1;
        self.max_reg = self.max_reg.max(self.next_temp);
        r as Reg
    }

    fn reset_temps(&mut self) {
        self.next_temp = self.frame_base;
    }

    fn emit_placeholder(&mut self) -> usize {
        let at = self.code.len();
        self.code.push(Instr::Jump(0));
        at
    }

    fn patch(&mut self, at: usize, instr: Instr) {
        self.code[at] = instr;
    }
}
