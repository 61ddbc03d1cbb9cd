//! The tree-walking evaluation engine.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use vgl_ir::ops::{self, Exception};
use vgl_ir::{
    Body, Builtin, Expr, ExprKind, Method, MethodId, MethodKind, Module, Oper, Stmt,
};
use vgl_runtime::value::{AllocStats, ArrData, Closure, ObjData, Value};
use vgl_types::{ClassId, Type, TypeKind, TypeStore, TypeVarId};

/// Why execution stopped abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterpError {
    /// A language-level runtime exception.
    Exception(Exception),
    /// The configured fuel (step budget) ran out.
    OutOfFuel,
    /// The module has no `main`.
    NoMain,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Exception(e) => write!(f, "{e}"),
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::NoMain => write!(f, "program has no main"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Costs the interpreter pays that the compiler pipeline removes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Allocation counters (tuple boxes are the E1 metric).
    pub allocs: AllocStats,
    /// §4.1 dynamic calling-convention checks at first-class call sites
    /// (the E6 metric).
    pub callsite_checks: usize,
    /// Calling-convention *adaptations* performed (boxing or unboxing of an
    /// argument tuple because caller and callee disagreed on arity).
    pub callsite_adaptations: usize,
    /// Runtime type substitutions (the type-argument-passing cost, E2).
    pub type_substitutions: usize,
    /// Type-environment consultations (every substitution walks the frame's
    /// type env — §4.3's "invisible arguments" being read back).
    pub env_lookups: usize,
    /// Cumulative type-env size across consultations; `env_depth_total /
    /// env_lookups` is the mean environment depth paid per lookup.
    pub env_depth_total: usize,
    /// Largest type environment consulted.
    pub max_env_depth: usize,
    /// Expression evaluation steps.
    pub steps: u64,
}

type EResult = Result<Value, Exception>;

enum Flow {
    Next,
    Break,
    Continue,
    Return(Value),
}

type SResult = Result<Flow, Exception>;

struct Frame {
    locals: Vec<Value>,
    type_env: HashMap<TypeVarId, Type>,
}

/// The interpreter. Borrow a typed [`Module`] and run it.
pub struct Interp<'m> {
    module: &'m Module,
    store: TypeStore,
    /// Component variable values.
    globals: Vec<Value>,
    /// Captured `System.puts`/`puti`/... output.
    out: Vec<u8>,
    /// Statistics.
    pub stats: InterpStats,
    fuel: Option<u64>,
}

/// Fuel exhaustion sentinel distinct from language exceptions.
const FUEL_EXCEPTION: Exception = Exception::UserError;

impl<'m> Interp<'m> {
    /// Creates an interpreter for `module`.
    pub fn new(module: &'m Module) -> Interp<'m> {
        Interp {
            module,
            store: module.store.clone(),
            globals: Vec::new(),
            out: Vec::new(),
            stats: InterpStats::default(),
            fuel: None,
        }
    }

    /// Limits execution to `steps` expression evaluations.
    pub fn set_fuel(&mut self, steps: u64) {
        self.fuel = Some(steps);
    }

    /// Captured output so far (everything written via `System.*`).
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }

    /// Initializes globals and runs `main`.
    pub fn run(&mut self) -> Result<Value, InterpError> {
        let Some(main) = self.module.main else {
            return Err(InterpError::NoMain);
        };
        self.init_globals().map_err(|e| self.lift(e))?;
        self.call(main, vec![], vec![]).map_err(|e| self.lift(e))
    }

    /// Initializes globals then calls a component method by name (testing
    /// hook).
    pub fn run_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, InterpError> {
        let Some(m) = self.module.method_by_name(name) else {
            return Err(InterpError::NoMain);
        };
        self.init_globals().map_err(|e| self.lift(e))?;
        self.call(m, vec![], args).map_err(|e| self.lift(e))
    }

    /// Classifies an unwound exception. The fuel sentinel shares its
    /// `Exception` value with `System.error`, so disambiguate by whether the
    /// budget actually ran out: the per-eval fuel check fires *before* any
    /// builtin can raise, so `steps > fuel` exactly identifies exhaustion —
    /// fuel exhaustion must surface as [`InterpError::OutOfFuel`], never as
    /// the language-level `!Error` trap.
    fn lift(&self, e: Exception) -> InterpError {
        if e == FUEL_EXCEPTION && self.fuel.is_some_and(|f| self.stats.steps > f) {
            InterpError::OutOfFuel
        } else {
            InterpError::Exception(e)
        }
    }

    fn init_globals(&mut self) -> Result<(), Exception> {
        if !self.globals.is_empty() {
            return Ok(());
        }
        // Pre-fill defaults so out-of-order references see zero values.
        let empty = HashMap::new();
        for g in &self.module.globals {
            let d = self.default_value(g.ty, &empty)?;
            self.globals.push(d);
        }
        for (i, g) in self.module.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let mut frame = Frame {
                    locals: vec![Value::Unit; g.locals.len()],
                    type_env: HashMap::new(),
                };
                let v = self.eval(init, &mut frame)?;
                self.globals[i] = v;
            }
        }
        Ok(())
    }

    // ---- types at runtime ---------------------------------------------------

    fn subst(&mut self, t: Type, env: &HashMap<TypeVarId, Type>) -> Type {
        if env.is_empty() || !self.store.is_polymorphic(t) {
            return t;
        }
        self.stats.type_substitutions += 1;
        self.stats.env_lookups += 1;
        self.stats.env_depth_total += env.len();
        self.stats.max_env_depth = self.stats.max_env_depth.max(env.len());
        self.store.substitute(t, env)
    }

    fn subst_list(&mut self, ts: &[Type], env: &HashMap<TypeVarId, Type>) -> Vec<Type> {
        ts.iter().map(|&t| self.subst(t, env)).collect()
    }

    /// The dynamic type of a value (reconstructed from reified information).
    fn dynamic_type(&mut self, v: &Value) -> Type {
        match v {
            Value::Unit => self.store.void,
            Value::Bool(_) => self.store.bool_,
            Value::Byte(_) => self.store.byte,
            Value::Int(_) => self.store.int,
            Value::Null => self.store.null,
            Value::Tuple(es) => {
                let tys: Vec<Type> = es
                    .iter()
                    .map(|e| self.dynamic_type(e))
                    .collect::<Vec<_>>();
                self.store.tuple(tys)
            }
            Value::Object(o) => {
                let o = o.borrow();
                self.store.class(o.class, o.type_args.clone())
            }
            Value::Array(a) => {
                let elem = a.borrow().elem;
                self.store.array(elem)
            }
            Value::Closure(c) => self.closure_type(c),
        }
    }

    fn closure_type(&mut self, c: &Closure) -> Type {
        match c {
            Closure::Method { method, type_args, recv } => {
                let m = self.module.method(*method);
                let vars = self.module.all_type_params(*method);
                let env: HashMap<TypeVarId, Type> =
                    vars.into_iter().zip(type_args.iter().copied()).collect();
                let start = if m.owner.is_some() && recv.is_some() { 1 } else { 0 };
                let ptys: Vec<Type> = m.locals[start..m.param_count]
                    .iter()
                    .map(|l| l.ty)
                    .collect();
                let ptys: Vec<Type> = ptys
                    .into_iter()
                    .map(|t| self.store.substitute(t, &env))
                    .collect();
                let p = self.store.tuple(ptys);
                let r = self.store.substitute(m.ret, &env);
                self.store.function(p, r)
            }
            Closure::Oper(op) => self.oper_type(*op),
            Closure::Ctor { class, type_args } => {
                let ctor = self.module.class(*class).ctor.expect("class has ctor");
                let m = self.module.method(ctor);
                let params = self.module.class(*class).type_params.clone();
                let env: HashMap<TypeVarId, Type> =
                    params.into_iter().zip(type_args.iter().copied()).collect();
                let ptys: Vec<Type> = m.locals[1..m.param_count].iter().map(|l| l.ty).collect();
                let ptys: Vec<Type> =
                    ptys.into_iter().map(|t| self.store.substitute(t, &env)).collect();
                let p = self.store.tuple(ptys);
                let r = self.store.class(*class, type_args.clone());
                self.store.function(p, r)
            }
            Closure::ArrayNew { elem } => {
                let a = self.store.array(*elem);
                let int = self.store.int;
                self.store.function(int, a)
            }
            Closure::Builtin(b) => {
                let (ps, r) = self.builtin_sig(*b);
                let p = self.store.tuple(ps);
                self.store.function(p, r)
            }
        }
    }

    fn oper_type(&mut self, op: Oper) -> Type {
        let s = &mut self.store;
        let (int, byte, bool_) = (s.int, s.byte, s.bool_);
        match op {
            Oper::IntAdd | Oper::IntSub | Oper::IntMul | Oper::IntDiv | Oper::IntMod
            | Oper::IntAnd | Oper::IntOr | Oper::IntXor | Oper::IntShl | Oper::IntShr => {
                let p = s.tuple(vec![int, int]);
                s.function(p, int)
            }
            Oper::IntLt | Oper::IntLe | Oper::IntGt | Oper::IntGe => {
                let p = s.tuple(vec![int, int]);
                s.function(p, bool_)
            }
            Oper::IntNeg => s.function(int, int),
            Oper::ByteLt | Oper::ByteLe | Oper::ByteGt | Oper::ByteGe => {
                let p = s.tuple(vec![byte, byte]);
                s.function(p, bool_)
            }
            Oper::BoolNot => s.function(bool_, bool_),
            Oper::Eq(t) | Oper::Ne(t) => {
                let p = s.tuple(vec![t, t]);
                s.function(p, bool_)
            }
            Oper::Cast { from, to } => s.function(from, to),
            Oper::Query { from, .. } => s.function(from, bool_),
        }
    }

    fn builtin_sig(&mut self, b: Builtin) -> (Vec<Type>, Type) {
        let s = &mut self.store;
        match b {
            Builtin::Puts | Builtin::Error => (vec![s.string], s.void),
            Builtin::Puti => (vec![s.int], s.void),
            Builtin::Putb => (vec![s.bool_], s.void),
            Builtin::Putc => (vec![s.byte], s.void),
            Builtin::Ln => (vec![], s.void),
            Builtin::Ticks => (vec![], s.int),
        }
    }

    fn default_value(&mut self, t: Type, env: &HashMap<TypeVarId, Type>) -> EResult {
        let t = self.subst(t, env);
        Ok(match self.store.kind(t).clone() {
            TypeKind::Void => Value::Unit,
            TypeKind::Bool => Value::Bool(false),
            TypeKind::Byte => Value::Byte(0),
            TypeKind::Int => Value::Int(0),
            TypeKind::Null
            | TypeKind::Class(..)
            | TypeKind::Array(_)
            | TypeKind::Function(..) => Value::Null,
            TypeKind::Tuple(ts) => {
                let mut vs = Vec::with_capacity(ts.len());
                for e in ts {
                    vs.push(self.default_value(e, env)?);
                }
                self.stats.allocs.tuples += 1;
                Value::Tuple(Rc::new(vs))
            }
            TypeKind::Var(_) => {
                debug_assert!(false, "unsubstituted type variable at runtime");
                Value::Unit
            }
            TypeKind::Error => {
                // Unreachable: a module with error diagnostics never runs.
                debug_assert!(false, "error type at runtime");
                Value::Unit
            }
        })
    }

    // ---- calls -----------------------------------------------------------------

    fn call(&mut self, method: MethodId, type_args: Vec<Type>, args: Vec<Value>) -> EResult {
        let m = self.module.method(method);
        if m.kind == MethodKind::Abstract {
            return Err(Exception::Unimplemented);
        }
        let vars = self.module.all_type_params(method);
        debug_assert_eq!(vars.len(), type_args.len(), "type arity at call of {}", m.name);
        let type_env: HashMap<TypeVarId, Type> =
            vars.into_iter().zip(type_args).collect();
        let mut locals = Vec::with_capacity(m.locals.len());
        debug_assert_eq!(args.len(), m.param_count, "arity at call of {}", m.name);
        locals.extend(args);
        for l in &m.locals[m.param_count..] {
            let d = self.default_value(l.ty, &type_env)?;
            locals.push(d);
        }
        let mut frame = Frame { locals, type_env };
        let body: &Body = m.body.as_ref().expect("non-abstract method has a body");
        match self.exec_block(&body.stmts, &mut frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Invokes a first-class function value — the §4.1 dynamic check lives
    /// here: the callee's arity may not match the written argument list, in
    /// which case the arguments are boxed or unboxed on the fly.
    fn invoke(&mut self, f: Value, mut args: Vec<Value>) -> EResult {
        self.stats.callsite_checks += 1;
        let Value::Closure(c) = f else {
            if f.is_null() {
                return Err(Exception::NullCheck);
            }
            unreachable!("typechecked program calls only function values");
        };
        match &*c {
            Closure::Method { method, type_args, recv } => {
                let (method, type_args) = (*method, type_args.clone());
                let m = self.module.method(method);
                let expected = m.param_count - usize::from(recv.is_some());
                args = self.adapt_args(args, expected)?;
                match recv {
                    Some(r) => {
                        let mut all = Vec::with_capacity(args.len() + 1);
                        all.push(r.clone());
                        all.extend(args);
                        self.call(method, type_args, all)
                    }
                    None => {
                        if m.owner.is_some() {
                            // Unbound form: dispatch on the first argument.
                            let recv = args.first().cloned().ok_or(Exception::NullCheck)?;
                            self.call_virtual_on(recv, method, &type_args, args.split_off(1))
                        } else {
                            self.call(method, type_args, args)
                        }
                    }
                }
            }
            Closure::Oper(op) => {
                let op = *op;
                let arity = self.oper_arity(op);
                args = self.adapt_args(args, arity)?;
                self.apply_oper(op, args, &HashMap::new())
            }
            Closure::Ctor { class, type_args } => {
                let (class, type_args) = (*class, type_args.clone());
                let ctor = self.module.class(class).ctor.expect("class has ctor");
                let expected = self.module.method(ctor).param_count - 1;
                args = self.adapt_args(args, expected)?;
                self.instantiate(class, type_args, args)
            }
            Closure::ArrayNew { elem } => {
                let elem = *elem;
                args = self.adapt_args(args, 1)?;
                self.array_new(elem, args[0].as_int())
            }
            Closure::Builtin(b) => {
                let b = *b;
                let (ps, _) = self.builtin_sig(b);
                args = self.adapt_args(args, ps.len())?;
                self.call_builtin(b, args)
            }
        }
    }

    /// The dynamic calling-convention adaptation (§4.1): boxes or unboxes the
    /// argument tuple when the caller's written arity differs from the
    /// callee's.
    fn adapt_args(&mut self, args: Vec<Value>, expected: usize) -> Result<Vec<Value>, Exception> {
        if args.len() == expected {
            return Ok(args);
        }
        self.stats.callsite_adaptations += 1;
        if expected == 1 {
            // Box the written arguments into one tuple value.
            self.stats.allocs.tuples += 1;
            return Ok(vec![Value::Tuple(Rc::new(args))]);
        }
        if args.len() == 1 {
            match args.into_iter().next().expect("one arg") {
                Value::Tuple(es) => {
                    debug_assert_eq!(es.len(), expected);
                    return Ok(es.as_ref().clone());
                }
                Value::Unit if expected == 0 => return Ok(vec![]),
                other => {
                    debug_assert!(false, "cannot adapt {other:?} to arity {expected}");
                    return Ok(vec![other]);
                }
            }
        }
        if expected == 0 {
            // Written args exist (e.g. a single void) — drop them.
            return Ok(vec![]);
        }
        debug_assert!(false, "unadaptable call: {} written vs {expected}", args.len());
        Err(Exception::TypeCheck)
    }

    fn oper_arity(&self, op: Oper) -> usize {
        match op {
            Oper::IntNeg | Oper::BoolNot | Oper::Cast { .. } | Oper::Query { .. } => 1,
            _ => 2,
        }
    }

    fn call_virtual_on(
        &mut self,
        recv: Value,
        declared: MethodId,
        site_type_args: &[Type],
        args: Vec<Value>,
    ) -> EResult {
        let Value::Object(obj) = &recv else {
            return Err(Exception::NullCheck);
        };
        let (dyn_class, dyn_args) = {
            let o = obj.borrow();
            (o.class, o.type_args.clone())
        };
        let target = self.module.resolve_virtual(dyn_class, declared);
        // Type args: the target's owner-class part comes from the receiver's
        // reified type arguments; the method's own part from the call site.
        let declared_m = self.module.method(declared);
        let own_count = declared_m.type_params.len();
        let site_own = &site_type_args[site_type_args.len() - own_count..];
        let target_owner = self.module.method(target).owner.expect("instance method");
        let owner_args = self.class_args_for(dyn_class, &dyn_args, target_owner);
        let mut full = owner_args;
        full.extend_from_slice(site_own);
        // §4.1: an override may declare a tuple parameter where the declared
        // method took scalars (listings p10-p17). Adapt dynamically, counting
        // the check.
        let expected = self.module.method(target).param_count - 1;
        let args = if args.len() == expected {
            args
        } else {
            self.stats.callsite_checks += 1;
            self.adapt_args(args, expected)?
        };
        let mut all = Vec::with_capacity(args.len() + 1);
        all.push(recv);
        all.extend(args);
        self.call(target, full, all)
    }

    /// Given a dynamic class and its args, computes the type arguments of
    /// ancestor `decl`.
    fn class_args_for(&mut self, c: ClassId, args: &[Type], decl: ClassId) -> Vec<Type> {
        let start = self.store.class(c, args.to_vec());
        let sups = self.module.hier.supertypes(&mut self.store, start);
        for s in sups {
            if let TypeKind::Class(sc, sargs) = self.store.kind(s).clone() {
                if sc == decl {
                    return sargs;
                }
            }
        }
        args.to_vec()
    }

    fn instantiate(&mut self, class: ClassId, type_args: Vec<Type>, args: Vec<Value>) -> EResult {
        let size = self.module.object_size(class);
        // Field defaults are per-slot; use each field's substituted type.
        let env: HashMap<TypeVarId, Type> = self
            .module
            .class(class)
            .type_params
            .iter()
            .copied()
            .zip(type_args.iter().copied())
            .collect();
        let mut fields = vec![Value::Unit; size];
        // Walk the chain to default-init every slot properly.
        let mut cur = Some(class);
        let mut chain_args = type_args.clone();
        let mut cur_class = class;
        while let Some(cid) = cur {
            let sub_env: HashMap<TypeVarId, Type> = self
                .module
                .class(cid)
                .type_params
                .iter()
                .copied()
                .zip(chain_args.iter().copied())
                .collect();
            for f in &self.module.class(cid).fields {
                let slot = f.slot;
                let fty = f.ty;
                fields[slot] = self.default_value(fty, &sub_env)?;
            }
            let parent = self.module.class(cid).parent;
            if let Some(p) = parent {
                chain_args = self.class_args_for(cur_class, &chain_args, p);
                cur_class = p;
            }
            cur = parent;
        }
        let _ = env;
        self.stats.allocs.objects += 1;
        let obj = Value::Object(Rc::new(RefCell::new(ObjData {
            class,
            type_args: type_args.clone(),
            fields,
        })));
        if let Some(ctor) = self.module.class(class).ctor {
            let mut all = Vec::with_capacity(args.len() + 1);
            all.push(obj.clone());
            all.extend(args);
            self.call(ctor, type_args, all)?;
        }
        Ok(obj)
    }

    fn array_new(&mut self, elem: Type, len: i32) -> EResult {
        if len < 0 {
            return Err(Exception::BoundsCheck);
        }
        let env = HashMap::new();
        let mut values = Vec::with_capacity(len as usize);
        for _ in 0..len {
            values.push(self.default_value(elem, &env)?);
        }
        self.stats.allocs.arrays += 1;
        Ok(Value::Array(Rc::new(RefCell::new(ArrData { elem, values }))))
    }

    fn call_builtin(&mut self, b: Builtin, args: Vec<Value>) -> EResult {
        match b {
            Builtin::Puts => {
                let Value::Array(a) = &args[0] else {
                    return Err(Exception::NullCheck);
                };
                for v in &a.borrow().values {
                    self.out.push(v.as_byte());
                }
                Ok(Value::Unit)
            }
            Builtin::Puti => {
                let s = args[0].as_int().to_string();
                self.out.extend_from_slice(s.as_bytes());
                Ok(Value::Unit)
            }
            Builtin::Putb => {
                let s = if args[0].as_bool() { "true" } else { "false" };
                self.out.extend_from_slice(s.as_bytes());
                Ok(Value::Unit)
            }
            Builtin::Putc => {
                self.out.push(args[0].as_byte());
                Ok(Value::Unit)
            }
            Builtin::Ln => {
                self.out.push(b'\n');
                Ok(Value::Unit)
            }
            // Saturate: `steps` is u64 and a long-running program would
            // silently wrap a plain `as i32` cast past 2^31 steps.
            Builtin::Ticks => Ok(Value::Int(
                i32::try_from(self.stats.steps).unwrap_or(i32::MAX),
            )),
            Builtin::Error => Err(Exception::UserError),
        }
    }

    // ---- statements ---------------------------------------------------------------

    fn exec_block(&mut self, stmts: &[Stmt], frame: &mut Frame) -> SResult {
        for s in stmts {
            match self.exec(s, frame)? {
                Flow::Next => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Next)
    }

    fn exec(&mut self, s: &Stmt, frame: &mut Frame) -> SResult {
        match s {
            Stmt::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Next)
            }
            Stmt::Local(l, init) => {
                if let Some(e) = init {
                    let v = self.eval(e, frame)?;
                    frame.locals[l.index()] = v;
                }
                Ok(Flow::Next)
            }
            Stmt::If(c, t, e) => {
                if self.eval(c, frame)?.as_bool() {
                    self.exec_block(t, frame)
                } else {
                    self.exec_block(e, frame)
                }
            }
            Stmt::While(c, body) => {
                loop {
                    if !self.eval(c, frame)?.as_bool() {
                        return Ok(Flow::Next);
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Next | Flow::Continue => {}
                        Flow::Break => return Ok(Flow::Next),
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b, frame),
        }
    }

    // ---- expressions -----------------------------------------------------------------

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> EResult {
        self.stats.steps += 1;
        if let Some(fuel) = self.fuel {
            if self.stats.steps > fuel {
                return Err(FUEL_EXCEPTION);
            }
        }
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Byte(v) => Ok(Value::Byte(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::Unit => Ok(Value::Unit),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::String(bytes) => {
                self.stats.allocs.arrays += 1;
                let byte = self.store.byte;
                Ok(Value::Array(Rc::new(RefCell::new(ArrData {
                    elem: byte,
                    values: bytes.iter().map(|&b| Value::Byte(b)).collect(),
                }))))
            }
            ExprKind::Local(l) => Ok(frame.locals[l.index()].clone()),
            ExprKind::Global(g) => Ok(self.globals[g.index()].clone()),
            ExprKind::LocalSet(l, v) => {
                let val = self.eval(v, frame)?;
                frame.locals[l.index()] = val.clone();
                Ok(val)
            }
            ExprKind::GlobalSet(g, v) => {
                let val = self.eval(v, frame)?;
                self.globals[g.index()] = val.clone();
                Ok(val)
            }
            ExprKind::Tuple(es) => {
                let mut vs = Vec::with_capacity(es.len());
                for x in es {
                    vs.push(self.eval(x, frame)?);
                }
                self.stats.allocs.tuples += 1;
                Ok(Value::Tuple(Rc::new(vs)))
            }
            ExprKind::TupleIndex(b, i) => {
                let v = self.eval(b, frame)?;
                match v {
                    Value::Tuple(es) => Ok(es[*i as usize].clone()),
                    // Degenerate (T) == T: index 0 of a non-tuple is itself.
                    other => Ok(other),
                }
            }
            ExprKind::ArrayLit(es) => {
                let elem_ty = match self.store.kind(e.ty).clone() {
                    TypeKind::Array(t) => t,
                    _ => self.store.void,
                };
                let elem_ty = self.subst(elem_ty, &frame.type_env);
                let mut vs = Vec::with_capacity(es.len());
                for x in es {
                    vs.push(self.eval(x, frame)?);
                }
                self.stats.allocs.arrays += 1;
                Ok(Value::Array(Rc::new(RefCell::new(ArrData {
                    elem: elem_ty,
                    values: vs,
                }))))
            }
            ExprKind::ArrayNew(n) => {
                let len = self.eval(n, frame)?.as_int();
                let elem_ty = match self.store.kind(e.ty).clone() {
                    TypeKind::Array(t) => t,
                    _ => self.store.void,
                };
                let elem_ty = self.subst(elem_ty, &frame.type_env);
                self.array_new(elem_ty, len)
            }
            ExprKind::ArrayLen(a) => {
                let v = self.eval(a, frame)?;
                match v {
                    Value::Array(a) => Ok(Value::Int(a.borrow().values.len() as i32)),
                    Value::Null => Err(Exception::NullCheck),
                    _ => unreachable!("length of non-array"),
                }
            }
            ExprKind::ArrayGet(a, i) => {
                let arr = self.eval(a, frame)?;
                let ix = self.eval(i, frame)?.as_int();
                match arr {
                    Value::Array(a) => {
                        let a = a.borrow();
                        if ix < 0 || ix as usize >= a.values.len() {
                            return Err(Exception::BoundsCheck);
                        }
                        Ok(a.values[ix as usize].clone())
                    }
                    Value::Null => Err(Exception::NullCheck),
                    _ => unreachable!("index of non-array"),
                }
            }
            ExprKind::ArraySet(a, i, v) => {
                let arr = self.eval(a, frame)?;
                let ix = self.eval(i, frame)?.as_int();
                let val = self.eval(v, frame)?;
                match arr {
                    Value::Array(a) => {
                        let mut a = a.borrow_mut();
                        if ix < 0 || ix as usize >= a.values.len() {
                            return Err(Exception::BoundsCheck);
                        }
                        a.values[ix as usize] = val.clone();
                        Ok(val)
                    }
                    Value::Null => Err(Exception::NullCheck),
                    _ => unreachable!("index of non-array"),
                }
            }
            ExprKind::FieldGet(o, fref) => {
                let obj = self.eval(o, frame)?;
                match obj {
                    Value::Object(o) => Ok(o.borrow().fields[fref.slot].clone()),
                    Value::Null => Err(Exception::NullCheck),
                    _ => unreachable!("field of non-object"),
                }
            }
            ExprKind::FieldSet(o, fref, v) => {
                let obj = self.eval(o, frame)?;
                let val = self.eval(v, frame)?;
                match obj {
                    Value::Object(o) => {
                        o.borrow_mut().fields[fref.slot] = val.clone();
                        Ok(val)
                    }
                    Value::Null => Err(Exception::NullCheck),
                    _ => unreachable!("field of non-object"),
                }
            }
            ExprKind::New { class, type_args, args } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                self.instantiate(*class, targs, vs)
            }
            ExprKind::CallStatic { method, type_args, args } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                self.call(*method, targs, vs)
            }
            ExprKind::CallVirtual { method, type_args, recv, args } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                let r = self.eval(recv, frame)?;
                if r.is_null() {
                    return Err(Exception::NullCheck);
                }
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                self.call_virtual_on(r, *method, &targs, vs)
            }
            ExprKind::CallClosure { func, args } => {
                let f = self.eval(func, frame)?;
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                self.invoke(f, vs)
            }
            ExprKind::BindMethod { method, type_args, recv } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                let r = self.eval(recv, frame)?;
                let Value::Object(obj) = &r else {
                    return Err(Exception::NullCheck);
                };
                // Resolve the virtual target at bind time.
                let (dyn_class, dyn_args) = {
                    let o = obj.borrow();
                    (o.class, o.type_args.clone())
                };
                let target = self.module.resolve_virtual(dyn_class, *method);
                let declared_m = self.module.method(*method);
                let own_count = declared_m.type_params.len();
                let site_own = &targs[targs.len() - own_count..];
                let target_owner =
                    self.module.method(target).owner.expect("instance method");
                let mut full = self.class_args_for(dyn_class, &dyn_args, target_owner);
                full.extend_from_slice(site_own);
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::Method {
                    method: target,
                    type_args: full,
                    recv: Some(r.clone()),
                })))
            }
            ExprKind::FuncRef { method, type_args } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::Method {
                    method: *method,
                    type_args: targs,
                    recv: None,
                })))
            }
            ExprKind::CtorRef { class, type_args } => {
                let targs = self.subst_list(type_args, &frame.type_env);
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::Ctor {
                    class: *class,
                    type_args: targs,
                })))
            }
            ExprKind::ArrayNewRef { elem } => {
                let elem = self.subst(*elem, &frame.type_env);
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::ArrayNew { elem })))
            }
            ExprKind::BuiltinRef(b) => {
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::Builtin(*b))))
            }
            ExprKind::Apply(op, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                let env = frame.type_env.clone();
                self.apply_oper(*op, vs, &env)
            }
            ExprKind::OpClosure(op) => {
                let op = self.subst_oper(*op, &frame.type_env);
                self.stats.allocs.closures += 1;
                Ok(Value::Closure(Rc::new(Closure::Oper(op))))
            }
            ExprKind::CallBuiltin(b, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                self.call_builtin(*b, vs)
            }
            ExprKind::And(a, b) => {
                if self.eval(a, frame)?.as_bool() {
                    self.eval(b, frame)
                } else {
                    Ok(Value::Bool(false))
                }
            }
            ExprKind::Or(a, b) => {
                if self.eval(a, frame)?.as_bool() {
                    Ok(Value::Bool(true))
                } else {
                    self.eval(b, frame)
                }
            }
            ExprKind::Ternary { cond, then, els } => {
                if self.eval(cond, frame)?.as_bool() {
                    self.eval(then, frame)
                } else {
                    self.eval(els, frame)
                }
            }
            ExprKind::Trap(x) => Err(*x),
            ExprKind::Let { local, value, body } => {
                let v = self.eval(value, frame)?;
                frame.locals[local.index()] = v;
                self.eval(body, frame)
            }
        }
    }

    fn subst_oper(&mut self, op: Oper, env: &HashMap<TypeVarId, Type>) -> Oper {
        match op {
            Oper::Eq(t) => Oper::Eq(self.subst(t, env)),
            Oper::Ne(t) => Oper::Ne(self.subst(t, env)),
            Oper::Cast { from, to } => Oper::Cast {
                from: self.subst(from, env),
                to: self.subst(to, env),
            },
            Oper::Query { from, to } => Oper::Query {
                from: self.subst(from, env),
                to: self.subst(to, env),
            },
            other => other,
        }
    }

    fn apply_oper(
        &mut self,
        op: Oper,
        args: Vec<Value>,
        env: &HashMap<TypeVarId, Type>,
    ) -> EResult {
        use Oper::*;
        let int2 = |args: &[Value]| (args[0].as_int(), args[1].as_int());
        Ok(match op {
            IntAdd => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_add(a, b))
            }
            IntSub => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_sub(a, b))
            }
            IntMul => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_mul(a, b))
            }
            IntDiv => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_div(a, b)?)
            }
            IntMod => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_mod(a, b)?)
            }
            IntLt => {
                let (a, b) = int2(&args);
                Value::Bool(a < b)
            }
            IntLe => {
                let (a, b) = int2(&args);
                Value::Bool(a <= b)
            }
            IntGt => {
                let (a, b) = int2(&args);
                Value::Bool(a > b)
            }
            IntGe => {
                let (a, b) = int2(&args);
                Value::Bool(a >= b)
            }
            IntAnd => {
                let (a, b) = int2(&args);
                Value::Int(a & b)
            }
            IntOr => {
                let (a, b) = int2(&args);
                Value::Int(a | b)
            }
            IntXor => {
                let (a, b) = int2(&args);
                Value::Int(a ^ b)
            }
            IntShl => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_shl(a, b))
            }
            IntShr => {
                let (a, b) = int2(&args);
                Value::Int(ops::int_shr(a, b))
            }
            IntNeg => Value::Int(ops::int_sub(0, args[0].as_int())),
            ByteLt => Value::Bool(args[0].as_byte() < args[1].as_byte()),
            ByteLe => Value::Bool(args[0].as_byte() <= args[1].as_byte()),
            ByteGt => Value::Bool(args[0].as_byte() > args[1].as_byte()),
            ByteGe => Value::Bool(args[0].as_byte() >= args[1].as_byte()),
            BoolNot => Value::Bool(!args[0].as_bool()),
            Eq(_) => Value::Bool(args[0].value_eq(&args[1])),
            Ne(_) => Value::Bool(!args[0].value_eq(&args[1])),
            Cast { to, .. } => {
                let to = self.subst(to, env);
                return self.runtime_cast(args.into_iter().next().expect("one arg"), to);
            }
            Query { to, .. } => {
                let to = self.subst(to, env);
                let v = args.into_iter().next().expect("one arg");
                Value::Bool(self.runtime_query(&v, to))
            }
        })
    }

    /// Runtime cast: succeeds when the value's dynamic type is a subtype of
    /// the target (plus the checked int↔byte conversions); `null` casts to
    /// any nullable type.
    fn runtime_cast(&mut self, v: Value, to: Type) -> EResult {
        if v.is_null() {
            return if self.store.is_nullable(to) {
                Ok(Value::Null)
            } else {
                Err(Exception::TypeCheck)
            };
        }
        // Value conversions.
        match (&v, self.store.kind(to).clone()) {
            (Value::Int(i), TypeKind::Byte) => return Ok(Value::Byte(ops::int_to_byte(*i)?)),
            (Value::Byte(b), TypeKind::Int) => return Ok(Value::Int(ops::byte_to_int(*b))),
            (Value::Tuple(es), TypeKind::Tuple(ts)) => {
                if es.len() != ts.len() {
                    return Err(Exception::TypeCheck);
                }
                let mut out = Vec::with_capacity(es.len());
                for (x, t) in es.iter().zip(ts) {
                    out.push(self.runtime_cast(x.clone(), t)?);
                }
                self.stats.allocs.tuples += 1;
                return Ok(Value::Tuple(Rc::new(out)));
            }
            _ => {}
        }
        let dyn_ty = self.dynamic_type(&v);
        if vgl_types::is_subtype(&mut self.store, &self.module.hier, dyn_ty, to) {
            Ok(v)
        } else {
            Err(Exception::TypeCheck)
        }
    }

    /// Runtime query: `null` is of no type; otherwise mirrors the cast.
    fn runtime_query(&mut self, v: &Value, to: Type) -> bool {
        if v.is_null() {
            return false;
        }
        // Queries are purely type-based: an int is never *of type* byte,
        // even when its value is representable (only the *cast* converts).
        if let (Value::Tuple(es), TypeKind::Tuple(ts)) = (v, self.store.kind(to).clone()) {
            return es.len() == ts.len()
                && es
                    .iter()
                    .zip(ts)
                    .all(|(x, t)| self.runtime_query(x, t));
        }
        let dyn_ty = self.dynamic_type(v);
        vgl_types::is_subtype(&mut self.store, &self.module.hier, dyn_ty, to)
    }
}

// The public-facing method used by Method in module.rs references locals;
// keep a compile-time check that Method is exported as expected.
const _: fn(&Method) -> usize = |m| m.param_count;

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Module {
        let mut d = vgl_syntax::Diagnostics::new();
        let ast = vgl_syntax::parse_program(src, &mut d);
        vgl_sema::analyze(&ast, &mut d).expect("typechecks")
    }

    #[test]
    fn ticks_saturates_instead_of_wrapping() {
        let module = analyze("def main() -> int { return 0; }");
        let mut i = Interp::new(&module);
        // Pretend a very long run: past 2^31 steps a plain `as i32` cast
        // would go negative; ticks must saturate at i32::MAX instead.
        i.stats.steps = (1u64 << 31) + 17;
        let v = i.call_builtin(Builtin::Ticks, vec![]).expect("ticks");
        assert_eq!(v.as_int(), i32::MAX);
        i.stats.steps = u64::MAX;
        let v = i.call_builtin(Builtin::Ticks, vec![]).expect("ticks");
        assert_eq!(v.as_int(), i32::MAX);
        // Below the boundary the exact count is reported.
        i.stats.steps = 123;
        let v = i.call_builtin(Builtin::Ticks, vec![]).expect("ticks");
        assert_eq!(v.as_int(), 123);
    }

    #[test]
    fn env_lookup_depth_counted_for_generic_calls() {
        let module = analyze(
            "def boxed<A, B>(v: A, w: B) -> A {\n\
                 var a = Array<A>.new(1);\n\
                 a[0] = v;\n\
                 return a[0];\n\
             }\n\
             def main() -> int { return boxed(7, true); }",
        );
        let mut i = Interp::new(&module);
        i.run().expect("runs");
        assert!(i.stats.env_lookups > 0, "generic call must consult the env");
        assert!(i.stats.env_depth_total >= i.stats.env_lookups);
        assert_eq!(i.stats.max_env_depth, 2, "boxed has two type params");
    }
}
