//! Normalization: tuple flattening / scalar replacement (paper §4.2).
//!
//! "Normalization is the process by which the Virgil compiler converts all
//! uses of tuples into uses of scalars, regardless of where they occur,
//! including parameters, return values, local variables, array elements,
//! fields, and elements inside other tuples."
//!
//! This pass runs on a *monomorphic* module and rewrites it in place:
//!
//! * parameters, locals, fields, and globals of tuple type become multiple
//!   scalar slots; `void` slots disappear;
//! * arrays of tuples become **multiple arrays**, one per scalar element
//!   (the paper names both layouts; we use the struct-of-arrays one);
//!   `Array<void>` keeps a single dummy `int` column so lengths and bounds
//!   checks survive (the paper's native target stores only the length — our
//!   dummy column preserves the observable semantics);
//! * tuple equality/casts/queries expand element-wise;
//! * first-class tuple operators (`T.==` for tuple `T`, parameterized casts)
//!   become references to synthesized scalar wrapper methods;
//! * method calls pass scalars only — the §4.1 calling-convention ambiguity
//!   is *gone*, because every function takes and returns scalars.
//!
//! Two *boundary* forms remain, exactly as the paper describes for targets
//! without multi-value support: a method returning a tuple ends with
//! `Return (v0, ..., vn)` (lowered by the VM to multiple return registers),
//! and a multi-value call result is bound to one tuple-typed local whose only
//! uses are direct projections (lowered to consecutive registers). The
//! [`check_normalized`] validator enforces that nothing else survives.
//!
//! ## Reusing a normalized body
//!
//! Flattening one method reads the method itself, the module's layout
//! (classes, globals, every method's return type) and two pieces of state
//! that earlier methods build up: the types normalization interns and the
//! synthesized wrappers, whose ids are handed out in first-use order. The
//! layout and the post-mono type ids are covered by
//! [`crate::context_digest`], so two compiles with equal digests start
//! flattening their methods from the same state; after that the state is
//! whatever the methods flattened so far left behind.
//!
//! [`normalize_reusing`] therefore copies in a stored body only after
//! replaying what flattening it did to that state. A method flattened
//! under a [`NormPlan`] records its demands in first-use order: each
//! `norm_type` call on a tuple, array or function type and the type it
//! returned, and each wrapper it asked for and the id it got. A plan entry
//! replays them through the same memoized allocators, in method order, and
//! is used only if every call returns what it returned at capture and
//! every type interned during normalization that those results reach has
//! its recorded kind. Then every id the stored body embeds means here what
//! it meant there, and the allocators hold exactly what a cold flattening
//! would have left. Wrapper ids do move between compiles with equal
//! digests (the serving determinism suite has a case); no program is known
//! to move a type id, and the type checks guard that case too. The replay
//! stops at the first call that differs; the calls before it are the ones
//! a cold flattening makes first, and repeats hit the memo tables, so
//! flattening the method afresh is still exact.
//!
//! The other interning calls of flattening only look types up: they
//! rebuild a tuple from the flattened pieces of a type a recorded
//! `norm_type` call already normalized (`tuple(flatten(norm(t)))` is
//! `norm(t)`, by the degenerate tuple rules), or an array of one of its
//! columns, which normalizing the array type interned.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::cache::{self, DupMap};
use crate::{BackendConfig, BackendReport};
use vgl_ir::ops::Exception;
use vgl_ir::{
    Body, Expr, ExprKind, FieldRef, GlobalId, Local, LocalId, Method, MethodId, MethodKind,
    Module, Oper, Stmt,
};
use vgl_types::{ClassId, Type, TypeKind, TypeStore};

/// Statistics from normalization (experiments E1/E6 narrate these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NormStats {
    /// Tuple constructions eliminated from expression positions.
    pub tuple_exprs_removed: usize,
    /// Extra parameters introduced by flattening.
    pub params_expanded: usize,
    /// Fields expanded into multiple scalar fields.
    pub fields_expanded: usize,
    /// Globals expanded.
    pub globals_expanded: usize,
    /// Methods that now return multiple values.
    pub multi_return_methods: usize,
    /// Synthesized operator wrapper methods.
    pub wrappers_synthesized: usize,
}

/// One effect of flattening a method on the state later methods read (see
/// the module docs), with what it returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum NormDemand {
    /// `norm_type` of a tuple, array or function type.
    Type(Type, Type),
    /// The wrapper of a first-class tuple operator.
    Oper(Oper, MethodId),
    /// The wrapper of `Array<elem>.new` for a multi-column element.
    ArrayNew(Type, MethodId),
}

/// One method's normalized signature and body in reusable form, as
/// [`NormRecord::capture`] takes it, with the demands its flattening made
/// and the kinds of the normalization-made types their results reach.
#[derive(Clone, Debug)]
pub struct NormFunc {
    param_count: usize,
    locals: Vec<Local>,
    ret: Type,
    body: Option<Body>,
    demands: Vec<NormDemand>,
    kinds: Vec<(Type, TypeKind)>,
}

/// Per-method reuse decisions for [`normalize_reusing`]: `funcs[i]` is
/// `Some` when method `i`'s normalized body, from a compile whose post-mono
/// module had the same [`crate::context_digest`] and whose method had the
/// same [`cache::method_fingerprint`], should be copied in instead of
/// flattened.
#[derive(Clone, Default)]
pub struct NormPlan {
    /// One slot per post-mono method.
    pub funcs: Vec<Option<Arc<NormFunc>>>,
}

/// The demands of one method flattened under a [`NormPlan`];
/// [`NormRecord::capture`] turns it into a store entry once the module is
/// normalized.
#[derive(Clone, Debug)]
pub struct NormRecord {
    demands: Vec<NormDemand>,
    kinds: Vec<(Type, TypeKind)>,
}

impl NormRecord {
    /// The reusable form of method `method` of the normalized `module` it
    /// was recorded for.
    pub fn capture(self, module: &Module, method: usize) -> NormFunc {
        let m = &module.methods[method];
        NormFunc {
            param_count: m.param_count,
            locals: m.locals.clone(),
            ret: m.ret,
            body: m.body.clone(),
            demands: self.demands,
            kinds: self.kinds,
        }
    }
}

/// Runs normalization in place (serially, instance cache on — equivalent
/// to [`normalize_cfg`] with the default [`BackendConfig`]).
pub fn normalize(module: &mut Module) -> NormStats {
    normalize_cfg(module, &BackendConfig::default(), &mut BackendReport::default())
}

/// [`normalize`] with the per-instance cache configurable: the no-plan
/// case of [`normalize_reusing`].
///
/// Normalization itself stays serial — wrapper synthesis and the type map
/// are order-sensitive shared state — but duplicate post-mono instances
/// skip `flatten_method` entirely and copy their representative's
/// flattened signature and body. This is output-identical to the uncached
/// run: a duplicate's flattening would make only demands its
/// representative, which precedes it, already made (see the module docs),
/// so the id assignment order is unchanged. The duplicate map comes from
/// `report.dup_map`, where [`crate::monomorphize_cfg`] leaves it; only a
/// module produced some other way is fingerprinted here. Statistics count
/// performed work; skips are reported in `report.norm_cache`. Debug builds
/// assert the §4.2 postcondition: tuple normal form
/// ([`vgl_ir::check_normalized`]).
pub fn normalize_cfg(
    module: &mut Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
) -> NormStats {
    normalize_reusing(module, cfg, report, None).0
}

/// [`normalize_cfg`] with cross-compile reuse of normalized bodies, the
/// daemon's warm path. Without a plan this is plain normalization and
/// returns no records. With one, every representative method with a plan
/// entry replays the entry's demands and, if they all come out as recorded,
/// gets the stored body copied in by the code that copies a duplicate from
/// its representative (see the module docs). Every other representative
/// is flattened as [`normalize_cfg`] would and gets a [`NormRecord`].
/// Records then come one per post-mono method, `None` for duplicates and
/// reused bodies. Reused bodies count as hits in `report.norm_cache`.
///
/// The module is identical to [`normalize_cfg`]'s, provided every plan
/// entry was captured from a compile whose post-mono module had the same
/// [`crate::context_digest`] and whose method had the same
/// [`cache::method_fingerprint`].
pub fn normalize_reusing(
    module: &mut Module,
    cfg: &BackendConfig,
    report: &mut BackendReport,
    plan: Option<&NormPlan>,
) -> (NormStats, Vec<Option<NormRecord>>) {
    let dup = if cfg.cache {
        // Prefer the map `monomorphize_cfg` already built for this
        // module; fall back to fingerprinting here when mono ran without
        // the cache or the module was produced some other way.
        match report.dup_map.take() {
            Some(dup) if dup.rep.len() == module.methods.len() => dup,
            _ => {
                let (dup, sample) = cache::dup_groups(module);
                report.workers.push(sample);
                dup
            }
        }
    } else {
        DupMap::identity(module.methods.len())
    };
    report.norm_cache.merge(&dup.stats);
    let mut n = Norm::new(module);
    n.dup = dup;
    let (records, reused) = n.run(plan);
    report.norm_cache.hits += reused;
    report.norm_cache.unique = report.norm_cache.unique.saturating_sub(reused);
    if cfg.cache {
        // The grouping survives the pass verbatim (dups are copies of their
        // reps again); let optimize reuse it instead of re-fingerprinting.
        report.dup_map = Some(std::mem::take(&mut n.dup));
    }
    let stats = n.stats;
    if cfg!(debug_assertions) {
        vgl_ir::assert_valid("normalization left tuples", &vgl_ir::check_normalized(module));
    }
    (stats, records)
}

/// The demands of the method being flattened under a plan, each kept once:
/// a repeated call hits the memo tables and changes nothing.
#[derive(Default)]
struct DemandLog {
    demands: Vec<NormDemand>,
    seen: HashSet<NormDemand>,
}

/// The types a type constructor is built from.
fn components(kind: &TypeKind) -> Vec<Type> {
    match kind {
        TypeKind::Array(e) => vec![*e],
        TypeKind::Tuple(es) | TypeKind::Class(_, es) => es.clone(),
        TypeKind::Function(p, r) => vec![*p, *r],
        _ => Vec::new(),
    }
}

struct Norm<'m> {
    module: &'m mut Module,
    stats: NormStats,
    /// Memoized type normalization.
    type_map: HashMap<Type, Type>,
    /// (class, old absolute slot) → (new absolute base slot, width).
    field_map: HashMap<(ClassId, usize), (usize, usize)>,
    /// old global → new globals (one per scalar piece).
    global_map: HashMap<GlobalId, Vec<GlobalId>>,
    /// Synthesized wrapper methods for first-class tuple operators.
    wrapper_map: HashMap<Oper, MethodId>,
    /// Synthesized methods awaiting append at their reserved ids.
    pending_wrappers: Vec<Method>,
    /// Pre-normalization parameter/return info per method (old types).
    old_rets: Vec<Type>,
    /// Old global initializers stashed during layout flattening.
    old_global_inits: Vec<(Option<Expr>, Vec<Local>)>,
    /// Duplicate-instance map: dups skip `flatten_method` and copy their
    /// representative's result.
    dup: DupMap,
    /// Type ids below this are fixed by the context digest: the post-mono
    /// types and those the layout flattening interned.
    base: usize,
    /// The current method's demands, while flattening under a plan.
    log: Option<DemandLog>,
}

impl<'m> Norm<'m> {
    fn new(module: &'m mut Module) -> Norm<'m> {
        let module_len = module.methods.len();
        let old_rets = module.methods.iter().map(|m| m.ret).collect();
        Norm {
            module,
            stats: NormStats::default(),
            type_map: HashMap::new(),
            field_map: HashMap::new(),
            global_map: HashMap::new(),
            wrapper_map: HashMap::new(),
            pending_wrappers: Vec::new(),
            old_rets,
            old_global_inits: Vec::new(),
            dup: DupMap::identity(module_len),
            base: 0,
            log: None,
        }
    }

    /// Normalizes the module; under a plan, returns one record per method
    /// (see [`normalize_reusing`]) and the number of bodies reused.
    fn run(&mut self, plan: Option<&NormPlan>) -> (Vec<Option<NormRecord>>, usize) {
        self.flatten_fields();
        self.flatten_globals();
        self.base = self.module.store.len();
        let method_count = self.module.methods.len();
        let mut records: Vec<Option<NormRecord>> =
            if plan.is_some() { vec![None; method_count] } else { Vec::new() };
        let mut reused: Vec<Option<&NormFunc>> = vec![None; method_count];
        for i in 0..method_count {
            if self.dup.is_dup(i) {
                continue;
            }
            let hit = plan.and_then(|p| p.funcs.get(i)).and_then(Option::as_deref);
            if let Some(hit) = hit.filter(|hit| self.replay(hit)) {
                reused[i] = Some(hit);
                continue;
            }
            if plan.is_some() {
                self.log = Some(DemandLog::default());
            }
            self.flatten_method(MethodId(i as u32));
            if let Some(log) = self.log.take() {
                records[i] = Some(self.record(log));
            }
        }
        // Reused bodies are copied in, and duplicates copy their
        // representative's flattened result (reps always precede their
        // dups), each keeping its own name.
        for (i, hit) in reused.iter().enumerate() {
            let r = self.dup.rep[i];
            let (param_count, locals, ret, body) = match hit {
                Some(hit) => (hit.param_count, hit.locals.clone(), hit.ret, hit.body.clone()),
                None if r != i => {
                    let src = &self.module.methods[r];
                    (src.param_count, src.locals.clone(), src.ret, src.body.clone())
                }
                None => continue,
            };
            let dst = &mut self.module.methods[i];
            dst.param_count = param_count;
            dst.locals = locals;
            dst.ret = ret;
            dst.body = body;
        }
        self.rebuild_global_inits();
        // Append all synthesized methods (wrappers, ginit helpers) at the
        // ids they were reserved under.
        let pending = std::mem::take(&mut self.pending_wrappers);
        self.stats.wrappers_synthesized = self.wrapper_map.len();
        self.module.methods.extend(pending);
        (records, reused.iter().flatten().count())
    }

    /// Replays a stored body's demands in order and reports whether each
    /// came out as recorded (see the module docs). Stops at the first that
    /// does not.
    fn replay(&mut self, hit: &NormFunc) -> bool {
        hit.demands.iter().all(|&d| match d {
            NormDemand::Type(t, n) => self.norm_type(t) == n && self.same_type(n, &hit.kinds),
            NormDemand::Oper(op, id) => self.oper_wrapper(op) == id,
            NormDemand::ArrayNew(elem, id) => self.array_ctor_wrapper(elem) == id,
        })
    }

    /// True when `t` and every normalization-made type it reaches have the
    /// kinds recorded in `kinds` (sorted by id).
    fn same_type(&self, t: Type, kinds: &[(Type, TypeKind)]) -> bool {
        if t.index() < self.base {
            return true;
        }
        let Ok(at) = kinds.binary_search_by_key(&t, |&(id, _)| id) else { return false };
        let kind = self.module.store.kind(t);
        *kind == kinds[at].1 && components(kind).into_iter().all(|c| self.same_type(c, kinds))
    }

    /// The record of one method flattened under a plan: its demands, and
    /// the kinds of the normalization-made types their results reach.
    fn record(&self, log: DemandLog) -> NormRecord {
        let mut kinds = BTreeMap::new();
        for d in &log.demands {
            if let NormDemand::Type(_, n) = *d {
                self.collect_kinds(n, &mut kinds);
            }
        }
        NormRecord { demands: log.demands, kinds: kinds.into_iter().collect() }
    }

    fn collect_kinds(&self, t: Type, out: &mut BTreeMap<Type, TypeKind>) {
        if t.index() < self.base || out.contains_key(&t) {
            return;
        }
        let kind = self.module.store.kind(t).clone();
        for c in components(&kind) {
            self.collect_kinds(c, out);
        }
        out.insert(t, kind);
    }

    /// Logs `d` for the method being recorded, once.
    fn note(&mut self, d: NormDemand) {
        if let Some(log) = &mut self.log {
            if log.seen.insert(d) {
                log.demands.push(d);
            }
        }
    }

    /// Reserves the next method id for a synthesized method.
    fn reserve_method(&mut self, m: Method) -> MethodId {
        let id = MethodId((self.module.methods.len() + self.pending_wrappers.len()) as u32);
        self.pending_wrappers.push(m);
        id
    }

    // ---- type normalization -------------------------------------------------

    /// The normalized form of `t`; a demand when it may intern types.
    fn norm_type(&mut self, t: Type) -> Type {
        let n = self.normalized(t);
        if self.log.is_some()
            && matches!(
                self.module.store.kind(t),
                TypeKind::Tuple(_) | TypeKind::Array(_) | TypeKind::Function(..)
            )
        {
            self.note(NormDemand::Type(t, n));
        }
        n
    }

    fn normalized(&mut self, t: Type) -> Type {
        if let Some(&n) = self.type_map.get(&t) {
            return n;
        }
        let store = &mut self.module.store;
        let n = match store.kind(t).clone() {
            TypeKind::Void
            | TypeKind::Bool
            | TypeKind::Byte
            | TypeKind::Int
            | TypeKind::Null
            | TypeKind::Class(..)
            | TypeKind::Error => t,
            TypeKind::Tuple(es) => {
                let mut flat = Vec::new();
                for e in es {
                    let ne = self.normalized(e);
                    let pieces = self.module.store.flatten(ne);
                    flat.extend(pieces);
                }
                self.module.store.tuple(flat)
            }
            TypeKind::Array(e) => {
                let ne = self.normalized(e);
                let pieces = self.module.store.flatten(ne);
                match pieces.len() {
                    0 => {
                        // Array<void>: dummy int column keeps the length.
                        let int = self.module.store.int;
                        self.module.store.array(int)
                    }
                    1 => self.module.store.array(pieces[0]),
                    _ => {
                        let cols: Vec<Type> = pieces
                            .iter()
                            .map(|&p| self.module.store.array(p))
                            .collect();
                        self.module.store.tuple(cols)
                    }
                }
            }
            TypeKind::Function(p, r) => {
                let np = self.normalized(p);
                let nr = self.normalized(r);
                self.module.store.function(np, nr)
            }
            TypeKind::Var(_) => unreachable!("normalize requires a monomorphic module"),
        };
        self.type_map.insert(t, n);
        n
    }

    /// The scalar pieces representing `t` after normalization.
    fn pieces_of(&mut self, t: Type) -> Vec<Type> {
        let n = self.norm_type(t);
        self.module.store.flatten(n)
    }

    fn width(&mut self, t: Type) -> usize {
        self.pieces_of(t).len()
    }

    // ---- layout flattening -----------------------------------------------------

    fn flatten_fields(&mut self) {
        // Topological order (parents first) so base slots accumulate.
        let mut order: Vec<usize> = (0..self.module.classes.len()).collect();
        order.sort_by_key(|&i| self.module.hier.depth(ClassId(i as u32)));
        for i in order {
            let cid = ClassId(i as u32);
            let parent_size = match self.module.classes[i].parent {
                Some(p) => self.module.object_size(p),
                None => 0,
            };
            let old_fields = self.module.classes[i].fields.clone();
            let mut new_fields = Vec::new();
            let mut next = parent_size;
            for f in &old_fields {
                let pieces = self.pieces_of(f.ty);
                self.field_map.insert((cid, f.slot), (next, pieces.len()));
                if pieces.len() != 1 {
                    self.stats.fields_expanded += 1;
                }
                for (j, &p) in pieces.iter().enumerate() {
                    let name = if pieces.len() == 1 {
                        f.name.clone()
                    } else {
                        format!("{}.{j}", f.name)
                    };
                    new_fields.push(vgl_ir::Field {
                        name,
                        mutable: f.mutable,
                        ty: p,
                        slot: next,
                        init: None,
                    });
                    next += 1;
                }
            }
            let class = &mut self.module.classes[i];
            class.first_field_slot = parent_size;
            class.fields = new_fields;
        }
    }

    fn flatten_globals(&mut self) {
        let old = std::mem::take(&mut self.module.globals);
        let mut new_globals = Vec::new();
        for (i, g) in old.iter().enumerate() {
            let pieces = self.pieces_of(g.ty);
            if pieces.len() != 1 {
                self.stats.globals_expanded += 1;
            }
            let mut ids = Vec::new();
            if pieces.is_empty() {
                // A void global still needs a slot if it has an initializer
                // with effects; keep a unit placeholder.
                let id = GlobalId(new_globals.len() as u32);
                ids.push(id);
                new_globals.push(vgl_ir::Global {
                    name: g.name.clone(),
                    mutable: g.mutable,
                    ty: self.module.store.void,
                    init: None,
                    locals: Vec::new(),
                });
            } else {
                for (j, &p) in pieces.iter().enumerate() {
                    let id = GlobalId(new_globals.len() as u32);
                    ids.push(id);
                    let name = if pieces.len() == 1 {
                        g.name.clone()
                    } else {
                        format!("{}.{j}", g.name)
                    };
                    new_globals.push(vgl_ir::Global {
                        name,
                        mutable: g.mutable,
                        ty: p,
                        init: None,
                        locals: Vec::new(),
                    });
                }
            }
            self.global_map.insert(GlobalId(i as u32), ids);
        }
        self.module.globals = new_globals;
        // Initializers are rebuilt in `rebuild_global_inits` (they need the
        // old init expressions, stashed by the caller before replacement).
        self.old_global_inits = old
            .into_iter()
            .map(|g| (g.init, g.locals))
            .collect();
    }

    fn rebuild_global_inits(&mut self) {
        let olds = std::mem::take(&mut self.old_global_inits);
        for (i, (init, locals)) in olds.into_iter().enumerate() {
            let Some(init) = init else { continue };
            let ids = self.global_map[&GlobalId(i as u32)].clone();
            // Build a flattening context over the stashed locals.
            let mut fx = self.method_ctx(&locals, 0);
            let mut out = Vec::new();
            let pieces = self.flat(&init, &mut fx, &mut out);
            // Assign pieces to the new globals via GlobalSet statements,
            // then pack everything into a synthesized init expression on the
            // first global: a Let-chain is enough because all effects are in
            // `out` statements... which an expression cannot hold. Instead,
            // synthesize a component method when there is anything nontrivial.
            let void = self.module.store.void;
            if out.is_empty() && pieces.len() == 1 && ids.len() == 1 {
                self.module.globals[ids[0].index()].init = Some(pieces[0].clone());
                self.module.globals[ids[0].index()].locals = fx.new_locals;
                continue;
            }
            // Synthesized `<ginit>` method: run stmts, set trailing pieces,
            // return the first piece (assigned to the first global).
            let mut stmts = out;
            debug_assert_eq!(pieces.len(), ids.len().min(pieces.len()));
            for (k, piece) in pieces.iter().enumerate().skip(1) {
                let gid = ids[k];
                stmts.push(Stmt::Expr(Expr::new(
                    ExprKind::GlobalSet(gid, Box::new(piece.clone())),
                    piece.ty,
                )));
            }
            let (ret, ret_expr) = match pieces.first() {
                Some(p) => (p.ty, Some(p.clone())),
                None => (void, None),
            };
            stmts.push(Stmt::Return(ret_expr));
            let name = format!("<ginit:{}>", self.module.globals[ids[0].index()].name);
            let mid = self.reserve_method(Method {
                name,
                owner: None,
                is_private: true,
                kind: MethodKind::Normal,
                type_params: vec![],
                param_count: 0,
                locals: fx.new_locals,
                ret,
                body: Some(Body { stmts }),
                vtable_index: None,
            });
            self.module.globals[ids[0].index()].init = Some(Expr::new(
                ExprKind::CallStatic { method: mid, type_args: vec![], args: vec![] },
                ret,
            ));
        }
    }

    // ---- method flattening ---------------------------------------------------------

    fn method_ctx(&mut self, old_locals: &[Local], param_count: usize) -> Fx {
        let mut fx = Fx {
            local_map: Vec::with_capacity(old_locals.len()),
            new_locals: Vec::new(),
            new_param_count: 0,
        };
        for (i, l) in old_locals.iter().enumerate() {
            let pieces = self.pieces_of(l.ty);
            let mut ids = Vec::with_capacity(pieces.len());
            for (j, &p) in pieces.iter().enumerate() {
                let id = LocalId(fx.new_locals.len() as u32);
                let name = if pieces.len() == 1 {
                    l.name.clone()
                } else {
                    format!("{}.{j}", l.name)
                };
                fx.new_locals.push(Local { name, ty: p, mutable: l.mutable });
                ids.push(id);
            }
            fx.local_map.push(ids);
            if i < param_count {
                fx.new_param_count = fx.new_locals.len();
            }
        }
        fx
    }

    fn flatten_method(&mut self, mid: MethodId) {
        let m = self.module.methods[mid.index()].clone();
        let mut fx = self.method_ctx(&m.locals, m.param_count);
        if fx.new_param_count > m.param_count {
            self.stats.params_expanded += fx.new_param_count - m.param_count;
        }
        let new_ret_pieces = self.pieces_of(m.ret);
        let new_ret = self.module.store.tuple(new_ret_pieces.clone());
        if new_ret_pieces.len() > 1 {
            self.stats.multi_return_methods += 1;
        }
        let new_body = m.body.as_ref().map(|b| Body {
            stmts: self.flat_block(&b.stmts, &mut fx),
        });
        let method = &mut self.module.methods[mid.index()];
        method.param_count = fx.new_param_count;
        method.locals = fx.new_locals;
        method.ret = new_ret;
        method.body = new_body;
    }

    fn flat_block(&mut self, stmts: &[Stmt], fx: &mut Fx) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            self.flat_stmt(s, fx, &mut out);
        }
        out
    }

    fn flat_stmt(&mut self, s: &Stmt, fx: &mut Fx, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Expr(e) => {
                let pieces = self.flat(e, fx, out);
                // Pure pieces are discarded; effects already in `out`.
                drop(pieces);
            }
            Stmt::Local(l, init) => {
                let ids = fx.local_map[l.index()].clone();
                match init {
                    Some(e) => {
                        let pieces = self.flat(e, fx, out);
                        debug_assert_eq!(pieces.len(), ids.len());
                        for (id, p) in ids.iter().zip(pieces) {
                            out.push(Stmt::Local(*id, Some(p)));
                        }
                    }
                    None => {
                        for id in ids {
                            out.push(Stmt::Local(id, None));
                        }
                    }
                }
            }
            Stmt::If(c, t, e) => {
                let cp = self.flat_scalar(c, fx, out);
                let tb = self.flat_block(t, fx);
                let eb = self.flat_block(e, fx);
                out.push(Stmt::If(cp, tb, eb));
            }
            Stmt::While(c, body) => {
                // Condition effects must re-run each iteration.
                let mut cond_stmts = Vec::new();
                let cp = self.flat_scalar(c, fx, &mut cond_stmts);
                let bb = self.flat_block(body, fx);
                if cond_stmts.is_empty() {
                    out.push(Stmt::While(cp, bb));
                } else {
                    let bool_ = self.module.store.bool_;
                    let mut inner = cond_stmts;
                    let not = Expr::new(
                        ExprKind::Apply(Oper::BoolNot, vec![cp]),
                        bool_,
                    );
                    inner.push(Stmt::If(not, vec![Stmt::Break], vec![]));
                    inner.extend(bb);
                    out.push(Stmt::While(Expr::new(ExprKind::Bool(true), bool_), inner));
                }
            }
            Stmt::Return(e) => {
                match e {
                    None => out.push(Stmt::Return(None)),
                    Some(e) => {
                        let mut pieces = self.flat(e, fx, out);
                        match pieces.len() {
                            0 => out.push(Stmt::Return(None)),
                            1 => out.push(Stmt::Return(Some(pieces.pop().expect("one")))),
                            _ => {
                                // Boundary multi-value return.
                                let tys: Vec<Type> = pieces.iter().map(|p| p.ty).collect();
                                let ty = self.module.store.tuple(tys);
                                out.push(Stmt::Return(Some(Expr::new(
                                    ExprKind::Tuple(pieces),
                                    ty,
                                ))));
                            }
                        }
                    }
                }
            }
            Stmt::Break => out.push(Stmt::Break),
            Stmt::Continue => out.push(Stmt::Continue),
            Stmt::Block(b) => {
                let bb = self.flat_block(b, fx);
                out.push(Stmt::Block(bb));
            }
        }
    }

    /// Flattens an expression expected to be scalar (width 1).
    fn flat_scalar(&mut self, e: &Expr, fx: &mut Fx, out: &mut Vec<Stmt>) -> Expr {
        let mut pieces = self.flat(e, fx, out);
        debug_assert_eq!(pieces.len(), 1, "expected scalar for {:?}", e.kind);
        pieces.pop().expect("one piece")
    }

    /// Forces every non-constant piece into a fresh temp *now*, so that
    /// subsequent stores cannot clobber locals/globals the pieces still read
    /// (tuple assignment is simultaneous: `p = (0, p.0)` must read the old
    /// `p.0`).
    fn materialize(&mut self, pieces: Vec<Expr>, fx: &mut Fx, out: &mut Vec<Stmt>) -> Vec<Expr> {
        pieces
            .into_iter()
            .map(|p| {
                if matches!(
                    p.kind,
                    ExprKind::Int(_) | ExprKind::Byte(_) | ExprKind::Bool(_) | ExprKind::Null
                ) {
                    return p;
                }
                let ty = p.ty;
                let id = self.fresh_local(fx, ty);
                out.push(Stmt::Local(id, Some(p)));
                Expr::new(ExprKind::Local(id), ty)
            })
            .collect()
    }

    /// Spills an expression to a fresh temp, returning the read.
    fn spill(&mut self, e: Expr, fx: &mut Fx, out: &mut Vec<Stmt>) -> Expr {
        if is_pure_scalar(&e) {
            return e;
        }
        let id = LocalId(fx.new_locals.len() as u32);
        fx.new_locals.push(Local {
            name: format!("$n{}", id.0),
            ty: e.ty,
            mutable: true,
        });
        let ty = e.ty;
        out.push(Stmt::Local(id, Some(e)));
        Expr::new(ExprKind::Local(id), ty)
    }

    /// The workhorse: flattens `e` into effect-free scalar pieces, emitting
    /// effects into `out` in evaluation order.
    fn flat(&mut self, e: &Expr, fx: &mut Fx, out: &mut Vec<Stmt>) -> Vec<Expr> {
        use ExprKind::*;
        let nty = self.norm_type(e.ty);
        match &e.kind {
            Int(_) | Byte(_) | Bool(_) | Null => vec![Expr::new(e.kind.clone(), nty)],
            Unit => vec![],
            Trap(x) => {
                // Emit the trap as a statement; produce default pieces (the
                // trap fires first, so they are never observed).
                let void = self.module.store.void;
                out.push(Stmt::Expr(Expr::new(Trap(*x), void)));
                let pieces = self.pieces_of(e.ty);
                pieces
                    .into_iter()
                    .map(|p| self.zero_piece(p))
                    .collect()
            }
            String(bytes) => {
                let s = Expr::new(String(bytes.clone()), nty);
                vec![self.spill(s, fx, out)]
            }
            Local(l) => {
                let ids = fx.local_map[l.index()].clone();
                ids.into_iter()
                    .map(|id| {
                        let ty = fx.new_locals[id.index()].ty;
                        Expr::new(Local(id), ty)
                    })
                    .collect()
            }
            Global(g) => {
                let ids = self.global_map[g].clone();
                let pieces = self.pieces_of(e.ty);
                if pieces.is_empty() {
                    return vec![];
                }
                ids.into_iter()
                    .zip(pieces)
                    .map(|(id, ty)| Expr::new(Global(id), ty))
                    .collect()
            }
            LocalSet(l, v) => {
                let pieces = self.flat(v, fx, out);
                let pieces = self.materialize(pieces, fx, out);
                let ids = fx.local_map[l.index()].clone();
                debug_assert_eq!(pieces.len(), ids.len());
                for (id, p) in ids.iter().zip(pieces) {
                    let ty = p.ty;
                    out.push(Stmt::Expr(Expr::new(LocalSet(*id, Box::new(p)), ty)));
                }
                ids.into_iter()
                    .map(|id| {
                        let ty = fx.new_locals[id.index()].ty;
                        Expr::new(Local(id), ty)
                    })
                    .collect()
            }
            GlobalSet(g, v) => {
                let pieces = self.flat(v, fx, out);
                let pieces = self.materialize(pieces, fx, out);
                let ids = self.global_map[g].clone();
                for (id, p) in ids.iter().zip(pieces.iter()) {
                    let ty = p.ty;
                    out.push(Stmt::Expr(Expr::new(
                        GlobalSet(*id, Box::new(p.clone())),
                        ty,
                    )));
                }
                ids.iter()
                    .zip(pieces)
                    .map(|(id, p)| Expr::new(Global(*id), p.ty))
                    .collect()
            }
            Tuple(es) => {
                self.stats.tuple_exprs_removed += 1;
                let mut pieces = Vec::new();
                for x in es {
                    pieces.extend(self.flat(x, fx, out));
                }
                pieces
            }
            TupleIndex(b, i) => {
                // Width arithmetic over the *old* element types.
                let elem_tys = match self.module.store.kind(b.ty).clone() {
                    TypeKind::Tuple(ts) => ts,
                    _ => vec![b.ty], // degenerate (T).0
                };
                let pieces = self.flat(b, fx, out);
                let mut start = 0;
                for t in elem_tys.iter().take(*i as usize) {
                    start += self.width(*t);
                }
                let w = self.width(elem_tys[*i as usize]);
                pieces[start..start + w].to_vec()
            }
            ArrayLit(es) => {
                let elem_old = match self.module.store.kind(e.ty).clone() {
                    TypeKind::Array(t) => t,
                    _ => unreachable!("array literal has array type"),
                };
                let col_tys = self.pieces_of(elem_old);
                let mut cols: Vec<Vec<Expr>> = vec![Vec::new(); col_tys.len().max(1)];
                for x in es {
                    let pieces = self.flat(x, fx, out);
                    if col_tys.is_empty() {
                        // Array<void>: dummy zero per element.
                        cols[0].push(Expr::new(Int(0), self.module.store.int));
                    } else {
                        for (c, p) in pieces.into_iter().enumerate() {
                            cols[c].push(p);
                        }
                    }
                }
                if col_tys.is_empty() {
                    let int = self.module.store.int;
                    let arr = self.module.store.array(int);
                    let lit = Expr::new(ArrayLit(cols.remove(0)), arr);
                    return vec![self.spill(lit, fx, out)];
                }
                col_tys
                    .iter()
                    .zip(cols)
                    .map(|(&ct, col)| {
                        let arr = self.module.store.array(ct);
                        let lit = Expr::new(ArrayLit(col), arr);
                        self.spill(lit, fx, out)
                    })
                    .collect()
            }
            ArrayNew(n) => {
                let elem_old = match self.module.store.kind(e.ty).clone() {
                    TypeKind::Array(t) => t,
                    _ => unreachable!("array new has array type"),
                };
                let col_tys = self.pieces_of(elem_old);
                let len = self.flat_scalar(n, fx, out);
                let len = self.spill(len, fx, out);
                if col_tys.is_empty() {
                    let int = self.module.store.int;
                    let arr = self.module.store.array(int);
                    let nw = Expr::new(ArrayNew(Box::new(len)), arr);
                    return vec![self.spill(nw, fx, out)];
                }
                col_tys
                    .iter()
                    .map(|&ct| {
                        let arr = self.module.store.array(ct);
                        let nw = Expr::new(ArrayNew(Box::new(len.clone())), arr);
                        self.spill(nw, fx, out)
                    })
                    .collect()
            }
            ArrayLen(a) => {
                let pieces = self.flat(a, fx, out);
                let int = self.module.store.int;
                let first = pieces.into_iter().next().expect("array has >=1 column");
                vec![self.spill(Expr::new(ArrayLen(Box::new(first)), int), fx, out)]
            }
            ArrayGet(a, i) => {
                let cols = self.flat(a, fx, out);
                let ix = self.flat_scalar(i, fx, out);
                let ix = self.spill(ix, fx, out);
                let elem_old = match self.module.store.kind(a.ty).clone() {
                    TypeKind::Array(t) => t,
                    _ => unreachable!("array get on array"),
                };
                let piece_tys = self.pieces_of(elem_old);
                if piece_tys.is_empty() {
                    // Bounds check against the dummy column, discard.
                    let int = self.module.store.int;
                    let chk = Expr::new(
                        ArrayGet(Box::new(cols[0].clone()), Box::new(ix)),
                        int,
                    );
                    out.push(Stmt::Expr(chk));
                    return vec![];
                }
                cols.iter()
                    .zip(piece_tys)
                    .map(|(col, ty)| {
                        let g = Expr::new(
                            ArrayGet(Box::new(col.clone()), Box::new(ix.clone())),
                            ty,
                        );
                        self.spill(g, fx, out)
                    })
                    .collect()
            }
            ArraySet(a, i, v) => {
                let cols = self.flat(a, fx, out);
                let ix = self.flat_scalar(i, fx, out);
                let ix = self.spill(ix, fx, out);
                let pieces = self.flat(v, fx, out);
                if pieces.is_empty() {
                    let int = self.module.store.int;
                    // Bounds-checked dummy store.
                    let st = Expr::new(
                        ArraySet(
                            Box::new(cols[0].clone()),
                            Box::new(ix),
                            Box::new(Expr::new(Int(0), int)),
                        ),
                        int,
                    );
                    out.push(Stmt::Expr(st));
                    return vec![];
                }
                let mut reads = Vec::new();
                for (col, p) in cols.iter().zip(pieces) {
                    let ty = p.ty;
                    let spilled = self.spill(p, fx, out);
                    reads.push(spilled.clone());
                    out.push(Stmt::Expr(Expr::new(
                        ArraySet(
                            Box::new(col.clone()),
                            Box::new(ix.clone()),
                            Box::new(spilled),
                        ),
                        ty,
                    )));
                }
                reads
            }
            FieldGet(o, fref) => {
                let obj = self.flat_scalar(o, fx, out);
                let obj = self.spill(obj, fx, out);
                let (base, w) = self.field_map[&(fref.class, fref.slot)];
                let piece_tys: Vec<Type> = (0..w)
                    .map(|j| {
                        let cl = &self.module.classes[fref.class.index()];
                        cl.fields
                            .iter()
                            .find(|f| f.slot == base + j)
                            .map(|f| f.ty)
                            .expect("flattened field exists")
                    })
                    .collect();
                if w == 0 {
                    // A void field: still null-check (paper: "accesses to
                    // fields of type void are replaced with null checks").
                    self.emit_null_check(obj, out);
                    return vec![];
                }
                (0..w)
                    .map(|j| {
                        let g = Expr::new(
                            FieldGet(
                                Box::new(obj.clone()),
                                FieldRef { class: fref.class, slot: base + j },
                            ),
                            piece_tys[j],
                        );
                        self.spill(g, fx, out)
                    })
                    .collect()
            }
            FieldSet(o, fref, v) => {
                let obj = self.flat_scalar(o, fx, out);
                let obj = self.spill(obj, fx, out);
                let (base, w) = self.field_map[&(fref.class, fref.slot)];
                let pieces = self.flat(v, fx, out);
                debug_assert_eq!(pieces.len(), w);
                if w == 0 {
                    self.emit_null_check(obj, out);
                    return vec![];
                }
                let mut reads = Vec::new();
                for (j, p) in pieces.into_iter().enumerate() {
                    let ty = p.ty;
                    let spilled = self.spill(p, fx, out);
                    reads.push(spilled.clone());
                    out.push(Stmt::Expr(Expr::new(
                        FieldSet(
                            Box::new(obj.clone()),
                            FieldRef { class: fref.class, slot: base + j },
                            Box::new(spilled),
                        ),
                        ty,
                    )));
                }
                reads
            }
            New { class, args, .. } => {
                let flat_args = self.flat_args(args, fx, out);
                let nw = Expr::new(
                    New { class: *class, type_args: vec![], args: flat_args },
                    nty,
                );
                vec![self.spill(nw, fx, out)]
            }
            CallStatic { method, args, .. } => {
                let flat_args = self.flat_args(args, fx, out);
                let call = Expr::new(
                    CallStatic { method: *method, type_args: vec![], args: flat_args },
                    self.call_result_type(*method),
                );
                self.distribute_call(call, e.ty, fx, out)
            }
            CallVirtual { method, recv, args, .. } => {
                let r = self.flat_scalar(recv, fx, out);
                let r = self.spill(r, fx, out);
                let flat_args = self.flat_args(args, fx, out);
                let call = Expr::new(
                    CallVirtual {
                        method: *method,
                        type_args: vec![],
                        recv: Box::new(r),
                        args: flat_args,
                    },
                    self.call_result_type(*method),
                );
                self.distribute_call(call, e.ty, fx, out)
            }
            CallClosure { func, args } => {
                let f = self.flat_scalar(func, fx, out);
                let f = self.spill(f, fx, out);
                let flat_args = self.flat_args(args, fx, out);
                let ret = self.norm_type(e.ty);
                let ret_flat = {
                    let pieces = self.module.store.flatten(ret);
                    self.module.store.tuple(pieces)
                };
                let call = Expr::new(
                    CallClosure { func: Box::new(f), args: flat_args },
                    ret_flat,
                );
                self.distribute_call(call, e.ty, fx, out)
            }
            CallBuiltin(b, args) => {
                let flat_args = self.flat_args(args, fx, out);
                let call = Expr::new(CallBuiltin(*b, flat_args), nty);
                self.distribute_call(call, e.ty, fx, out)
            }
            BindMethod { method, recv, .. } => {
                let r = self.flat_scalar(recv, fx, out);
                let bind = Expr::new(
                    BindMethod { method: *method, type_args: vec![], recv: Box::new(r) },
                    nty,
                );
                vec![self.spill(bind, fx, out)]
            }
            FuncRef { method, .. } => {
                vec![Expr::new(FuncRef { method: *method, type_args: vec![] }, nty)]
            }
            CtorRef { class, .. } => {
                vec![Expr::new(CtorRef { class: *class, type_args: vec![] }, nty)]
            }
            ArrayNewRef { elem } => {
                // After SoA splitting, a multi-column array constructor needs
                // a wrapper function.
                let cols = self.pieces_of(*elem);
                if cols.len() == 1 {
                    let ne = self.norm_type(*elem);
                    return vec![Expr::new(ArrayNewRef { elem: ne }, nty)];
                }
                let w = self.array_ctor_wrapper(*elem);
                vec![Expr::new(FuncRef { method: w, type_args: vec![] }, nty)]
            }
            BuiltinRef(b) => vec![Expr::new(BuiltinRef(*b), nty)],
            Apply(op, args) => self.flat_apply(*op, args, e.ty, fx, out),
            OpClosure(op) => {
                let nop = self.norm_oper(*op);
                if self.oper_needs_wrapper(nop) {
                    let w = self.oper_wrapper(nop);
                    vec![Expr::new(FuncRef { method: w, type_args: vec![] }, nty)]
                } else {
                    vec![Expr::new(OpClosure(nop), nty)]
                }
            }
            And(a, b) => {
                let ap = self.flat_scalar(a, fx, out);
                let mut b_stmts = Vec::new();
                let bp = self.flat_scalar(b, fx, &mut b_stmts);
                let bool_ = self.module.store.bool_;
                if b_stmts.is_empty() && is_pure_scalar(&bp) {
                    return vec![Expr::new(And(Box::new(ap), Box::new(bp)), bool_)];
                }
                // t = a; if (t) { b_stmts; t = b' }
                let t = self.fresh_local(fx, bool_);
                out.push(Stmt::Local(t, Some(ap)));
                let mut then = b_stmts;
                then.push(Stmt::Expr(Expr::new(LocalSet(t, Box::new(bp)), bool_)));
                out.push(Stmt::If(
                    Expr::new(Local(t), bool_),
                    then,
                    vec![],
                ));
                vec![Expr::new(Local(t), bool_)]
            }
            Or(a, b) => {
                let ap = self.flat_scalar(a, fx, out);
                let mut b_stmts = Vec::new();
                let bp = self.flat_scalar(b, fx, &mut b_stmts);
                let bool_ = self.module.store.bool_;
                if b_stmts.is_empty() && is_pure_scalar(&bp) {
                    return vec![Expr::new(Or(Box::new(ap), Box::new(bp)), bool_)];
                }
                let t = self.fresh_local(fx, bool_);
                out.push(Stmt::Local(t, Some(ap)));
                let mut els = b_stmts;
                els.push(Stmt::Expr(Expr::new(LocalSet(t, Box::new(bp)), bool_)));
                out.push(Stmt::If(
                    Expr::new(Local(t), bool_),
                    vec![],
                    els,
                ));
                vec![Expr::new(Local(t), bool_)]
            }
            Ternary { cond, then, els } => {
                let cp = self.flat_scalar(cond, fx, out);
                let mut t_stmts = Vec::new();
                let t_pieces = self.flat(then, fx, &mut t_stmts);
                let mut e_stmts = Vec::new();
                let e_pieces = self.flat(els, fx, &mut e_stmts);
                if t_stmts.is_empty()
                    && e_stmts.is_empty()
                    && t_pieces.len() == 1
                    && is_pure_scalar(&t_pieces[0])
                    && is_pure_scalar(&e_pieces[0])
                {
                    let ty = t_pieces[0].ty;
                    return vec![Expr::new(
                        Ternary {
                            cond: Box::new(cp),
                            then: Box::new(t_pieces.into_iter().next().expect("one")),
                            els: Box::new(e_pieces.into_iter().next().expect("one")),
                        },
                        ty,
                    )];
                }
                // Temps per piece, assigned in an If.
                let tys: Vec<Type> = t_pieces.iter().map(|p| p.ty).collect();
                let temps: Vec<LocalId> =
                    tys.iter().map(|&t| self.fresh_local(fx, t)).collect();
                for &t in &temps {
                    out.push(Stmt::Local(t, None));
                }
                let mut tb = t_stmts;
                for (t, p) in temps.iter().zip(t_pieces) {
                    let ty = p.ty;
                    tb.push(Stmt::Expr(Expr::new(LocalSet(*t, Box::new(p)), ty)));
                }
                let mut eb = e_stmts;
                for (t, p) in temps.iter().zip(e_pieces) {
                    let ty = p.ty;
                    eb.push(Stmt::Expr(Expr::new(LocalSet(*t, Box::new(p)), ty)));
                }
                out.push(Stmt::If(cp, tb, eb));
                temps
                    .into_iter()
                    .zip(tys)
                    .map(|(t, ty)| Expr::new(Local(t), ty))
                    .collect()
            }
            Let { local, value, body } => {
                let pieces = self.flat(value, fx, out);
                let ids = fx.local_map[local.index()].clone();
                debug_assert_eq!(pieces.len(), ids.len());
                for (id, p) in ids.iter().zip(pieces) {
                    out.push(Stmt::Local(*id, Some(p)));
                }
                self.flat(body, fx, out)
            }
        }
    }

    fn fresh_local(&mut self, fx: &mut Fx, ty: Type) -> LocalId {
        let id = LocalId(fx.new_locals.len() as u32);
        fx.new_locals.push(Local { name: format!("$n{}", id.0), ty, mutable: true });
        id
    }

    fn zero_piece(&mut self, ty: Type) -> Expr {
        let store = &self.module.store;
        let kind = store.kind(ty).clone();
        let k = match kind {
            TypeKind::Bool => ExprKind::Bool(false),
            TypeKind::Byte => ExprKind::Byte(0),
            TypeKind::Int => ExprKind::Int(0),
            _ => ExprKind::Null,
        };
        Expr::new(k, ty)
    }

    /// Flattens arguments into their scalar pieces, in a vector of exactly
    /// that length.
    fn flat_args(&mut self, args: &[Expr], fx: &mut Fx, out: &mut Vec<Stmt>) -> Vec<Expr> {
        let mut flat = Vec::with_capacity(args.len());
        for a in args {
            flat.extend(self.flat(a, fx, out));
        }
        flat.shrink_to_fit();
        flat
    }

    /// The flattened return type of a method (flat tuple of scalars).
    fn call_result_type(&mut self, m: MethodId) -> Type {
        let ret = self.old_rets.get(m.index()).copied().unwrap_or_else(|| {
            self.module.methods[m.index()].ret
        });
        let pieces = self.pieces_of(ret);
        self.module.store.tuple(pieces)
    }

    /// Turns a (possibly multi-valued) call into scalar pieces: zero-width
    /// results become statements, one-width results spill to a scalar temp,
    /// wider results bind to a boundary tuple-typed temp with projections.
    fn distribute_call(
        &mut self,
        call: Expr,
        old_ret: Type,
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Vec<Expr> {
        let piece_tys = self.pieces_of(old_ret);
        match piece_tys.len() {
            0 => {
                out.push(Stmt::Expr(call));
                vec![]
            }
            1 => vec![self.spill(call, fx, out)],
            w => {
                let tuple_ty = call.ty;
                let t = self.fresh_local(fx, tuple_ty);
                out.push(Stmt::Local(t, Some(call)));
                (0..w)
                    .map(|j| {
                        Expr::new(
                            ExprKind::TupleIndex(
                                Box::new(Expr::new(ExprKind::Local(t), tuple_ty)),
                                j as u32,
                            ),
                            piece_tys[j],
                        )
                    })
                    .collect()
            }
        }
    }

    // ---- operators --------------------------------------------------------------

    fn norm_oper(&mut self, op: Oper) -> Oper {
        match op {
            Oper::Eq(t) => Oper::Eq(self.norm_type(t)),
            Oper::Ne(t) => Oper::Ne(self.norm_type(t)),
            Oper::Cast { from, to } => Oper::Cast {
                from: self.norm_type(from),
                to: self.norm_type(to),
            },
            Oper::Query { from, to } => Oper::Query {
                from: self.norm_type(from),
                to: self.norm_type(to),
            },
            other => other,
        }
    }

    fn oper_needs_wrapper(&mut self, op: Oper) -> bool {
        let tuple_ty = |s: &TypeStore, t: Type| matches!(s.kind(t), TypeKind::Tuple(_));
        match op {
            Oper::Eq(t) | Oper::Ne(t) => tuple_ty(&self.module.store, t),
            Oper::Cast { from, to } | Oper::Query { from, to } => {
                tuple_ty(&self.module.store, from) || tuple_ty(&self.module.store, to)
            }
            _ => false,
        }
    }

    fn flat_apply(
        &mut self,
        op: Oper,
        args: &[Expr],
        old_result: Type,
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Vec<Expr> {
        let op = self.norm_oper(op);
        match op {
            Oper::Eq(t) | Oper::Ne(t) if matches!(self.module.store.kind(t), TypeKind::Tuple(_)) => {
                let negate = matches!(op, Oper::Ne(_));
                let a = self.flat(&args[0], fx, out);
                let b = self.flat(&args[1], fx, out);
                let piece_tys = self.module.store.flatten(t);
                let bool_ = self.module.store.bool_;
                debug_assert_eq!(a.len(), piece_tys.len());
                let mut acc: Option<Expr> = None;
                for ((x, y), pt) in a.into_iter().zip(b).zip(piece_tys) {
                    let x = self.spill(x, fx, out);
                    let y = self.spill(y, fx, out);
                    let cmp = Expr::new(
                        ExprKind::Apply(Oper::Eq(pt), vec![x, y]),
                        bool_,
                    );
                    acc = Some(match acc {
                        None => cmp,
                        Some(prev) => Expr::new(
                            ExprKind::And(Box::new(prev), Box::new(cmp)),
                            bool_,
                        ),
                    });
                }
                let all_eq = acc.unwrap_or_else(|| Expr::new(ExprKind::Bool(true), bool_));
                let result = if negate {
                    Expr::new(ExprKind::Apply(Oper::BoolNot, vec![all_eq]), bool_)
                } else {
                    all_eq
                };
                vec![result]
            }
            Oper::Cast { from, to } => self.flat_cast(from, to, &args[0], old_result, fx, out),
            Oper::Query { from, to } => {
                let r = self.flat_query(from, to, &args[0], fx, out);
                vec![r]
            }
            Oper::Eq(t) | Oper::Ne(t) if t == self.module.store.void => {
                // Zero-width equality: all void values are equal (§2, fn. 1:
                // "void has one value, (), which is always equal to itself").
                for a in args {
                    let _ = self.flat(a, fx, out);
                }
                let bool_ = self.module.store.bool_;
                vec![Expr::new(ExprKind::Bool(matches!(op, Oper::Eq(_))), bool_)]
            }
            _ => {
                // Scalar operator: flatten args (each scalar) and rebuild.
                let flat = self.flat_args(args, fx, out);
                let ret = self.norm_type(old_result);
                let applied = Expr::new(ExprKind::Apply(op, flat), ret);
                vec![self.spill(applied, fx, out)]
            }
        }
    }

    fn flat_cast(
        &mut self,
        from: Type,
        to: Type,
        arg: &Expr,
        old_result: Type,
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Vec<Expr> {
        let fk = self.module.store.kind(from).clone();
        let tk = self.module.store.kind(to).clone();
        match (fk, tk) {
            (TypeKind::Tuple(fs), TypeKind::Tuple(ts)) if fs.len() == ts.len() => {
                // The argument's pieces are already flat; cast piecewise.
                let pieces = self.flat(arg, fx, out);
                self.cast_pieces(from, to, &pieces, fx, out)
            }
            (TypeKind::Tuple(_), _) | (_, TypeKind::Tuple(_)) => {
                // Width mismatch or tuple vs scalar: statically impossible.
                let pieces = self.flat(arg, fx, out);
                drop(pieces);
                let void = self.module.store.void;
                out.push(Stmt::Expr(Expr::new(
                    ExprKind::Trap(Exception::TypeCheck),
                    void,
                )));
                let tys = self.pieces_of(old_result);
                tys.into_iter().map(|t| self.zero_piece(t)).collect()
            }
            (TypeKind::Void, TypeKind::Void) => {
                let _ = self.flat(arg, fx, out);
                vec![]
            }
            _ => {
                let p = self.flat_scalar(arg, fx, out);
                let casted = Expr::new(
                    ExprKind::Apply(Oper::Cast { from, to }, vec![p]),
                    to,
                );
                vec![self.spill(casted, fx, out)]
            }
        }
    }

    fn flat_query(
        &mut self,
        from: Type,
        to: Type,
        arg: &Expr,
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Expr {
        let bool_ = self.module.store.bool_;
        let fk = self.module.store.kind(from).clone();
        let tk = self.module.store.kind(to).clone();
        match (fk, tk) {
            (TypeKind::Tuple(fs), TypeKind::Tuple(ts)) if fs.len() == ts.len() => {
                // The argument's pieces are already flat; query piecewise.
                let pieces = self.flat(arg, fx, out);
                self.query_pieces(from, to, &pieces, fx, out)
            }
            (TypeKind::Tuple(_), _) | (_, TypeKind::Tuple(_)) => {
                let _ = self.flat(arg, fx, out);
                Expr::new(ExprKind::Bool(false), bool_)
            }
            _ => {
                let p = self.flat_scalar(arg, fx, out);
                let q = Expr::new(
                    ExprKind::Apply(Oper::Query { from, to }, vec![p]),
                    bool_,
                );
                self.spill(q, fx, out)
            }
        }
    }

    // ---- wrappers ------------------------------------------------------------------

    /// The scalar wrapper method for a first-class tuple operator, made on
    /// first use; a demand. Building it is part of the demand, not logged
    /// on its own.
    fn oper_wrapper(&mut self, op: Oper) -> MethodId {
        let id = match self.wrapper_map.get(&op) {
            Some(&m) => m,
            None => {
                let log = self.log.take();
                let id = self.build_oper_wrapper(op);
                self.log = log;
                id
            }
        };
        self.note(NormDemand::Oper(op, id));
        id
    }

    fn build_oper_wrapper(&mut self, op: Oper) -> MethodId {
        let bool_ = self.module.store.bool_;
        let method = match op {
            Oper::Eq(t) | Oper::Ne(t) => {
                let pieces = self.pieces_of(t);
                let w = pieces.len();
                let mut locals = Vec::new();
                for (j, &p) in pieces.iter().enumerate() {
                    locals.push(Local { name: format!("a{j}"), ty: p, mutable: false });
                }
                for (j, &p) in pieces.iter().enumerate() {
                    locals.push(Local { name: format!("b{j}"), ty: p, mutable: false });
                }
                let mut acc: Option<Expr> = None;
                for (j, &p) in pieces.iter().enumerate() {
                    let x = Expr::new(ExprKind::Local(LocalId(j as u32)), p);
                    let y = Expr::new(ExprKind::Local(LocalId((w + j) as u32)), p);
                    let cmp = Expr::new(ExprKind::Apply(Oper::Eq(p), vec![x, y]), bool_);
                    acc = Some(match acc {
                        None => cmp,
                        Some(prev) => Expr::new(
                            ExprKind::And(Box::new(prev), Box::new(cmp)),
                            bool_,
                        ),
                    });
                }
                let mut result =
                    acc.unwrap_or_else(|| Expr::new(ExprKind::Bool(true), bool_));
                if matches!(op, Oper::Ne(_)) {
                    result = Expr::new(ExprKind::Apply(Oper::BoolNot, vec![result]), bool_);
                }
                Method {
                    name: format!("<op:{op:?}>"),
                    owner: None,
                    is_private: true,
                    kind: MethodKind::Normal,
                    type_params: vec![],
                    param_count: 2 * w,
                    locals,
                    ret: bool_,
                    body: Some(Body { stmts: vec![Stmt::Return(Some(result))] }),
                    vtable_index: None,
                }
            }
            Oper::Cast { from, to } | Oper::Query { from, to } => {
                // Wrapper over the (already normalized) piecewise logic:
                // params = pieces of `from`, body reuses flat_cast/flat_query
                // on the parameter reads.
                let from_pieces = self.pieces_of(from);
                let mut locals = Vec::new();
                for (j, &p) in from_pieces.iter().enumerate() {
                    locals.push(Local { name: format!("x{j}"), ty: p, mutable: false });
                }
                let param_count = locals.len();
                let mut fx = Fx {
                    local_map: vec![],
                    new_locals: locals,
                    new_param_count: param_count,
                };
                // Build a synthetic tuple argument from the parameters by
                // constructing pieces directly.
                let arg_pieces: Vec<Expr> = from_pieces
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| Expr::new(ExprKind::Local(LocalId(j as u32)), p))
                    .collect();
                let mut out = Vec::new();
                let is_query = matches!(op, Oper::Query { .. });
                let (ret, stmts) = if is_query {
                    let q = self.query_pieces(from, to, &arg_pieces, &mut fx, &mut out);
                    out.push(Stmt::Return(Some(q)));
                    (bool_, out)
                } else {
                    let pieces =
                        self.cast_pieces(from, to, &arg_pieces, &mut fx, &mut out);
                    let tys: Vec<Type> = pieces.iter().map(|p| p.ty).collect();
                    let rty = self.module.store.tuple(tys);
                    match pieces.len() {
                        0 => out.push(Stmt::Return(None)),
                        1 => out.push(Stmt::Return(Some(
                            pieces.into_iter().next().expect("one"),
                        ))),
                        _ => out.push(Stmt::Return(Some(Expr::new(
                            ExprKind::Tuple(pieces),
                            rty,
                        )))),
                    }
                    (rty, out)
                };
                Method {
                    name: format!("<op:{op:?}>"),
                    owner: None,
                    is_private: true,
                    kind: MethodKind::Normal,
                    type_params: vec![],
                    param_count,
                    locals: fx.new_locals,
                    ret,
                    body: Some(Body { stmts }),
                    vtable_index: None,
                }
            }
            _ => unreachable!("only tuple operators need wrappers"),
        };
        let id = self.reserve_method(method);
        self.wrapper_map.insert(op, id);
        id
    }

    /// Piecewise cast over already-flattened pieces.
    fn cast_pieces(
        &mut self,
        from: Type,
        to: Type,
        pieces: &[Expr],
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Vec<Expr> {
        let from_pieces = self.pieces_of(from);
        let to_pieces = self.pieces_of(to);
        if from_pieces.len() != to_pieces.len() {
            let void = self.module.store.void;
            out.push(Stmt::Expr(Expr::new(ExprKind::Trap(Exception::TypeCheck), void)));
            return to_pieces.into_iter().map(|t| self.zero_piece(t)).collect();
        }
        pieces
            .iter()
            .zip(from_pieces.iter().zip(to_pieces.iter()))
            .map(|(p, (&f, &t))| {
                if f == t {
                    p.clone()
                } else {
                    let c = Expr::new(
                        ExprKind::Apply(Oper::Cast { from: f, to: t }, vec![p.clone()]),
                        t,
                    );
                    self.spill(c, fx, out)
                }
            })
            .collect()
    }

    /// Piecewise query over already-flattened pieces.
    fn query_pieces(
        &mut self,
        from: Type,
        to: Type,
        pieces: &[Expr],
        fx: &mut Fx,
        out: &mut Vec<Stmt>,
    ) -> Expr {
        let bool_ = self.module.store.bool_;
        let from_pieces = self.pieces_of(from);
        let to_pieces = self.pieces_of(to);
        if from_pieces.len() != to_pieces.len() {
            return Expr::new(ExprKind::Bool(false), bool_);
        }
        let mut acc: Option<Expr> = None;
        for (p, (&f, &t)) in pieces.iter().zip(from_pieces.iter().zip(to_pieces.iter())) {
            let q = if f == t && !self.module.store.is_nullable(f) {
                Expr::new(ExprKind::Bool(true), bool_)
            } else {
                let q = Expr::new(
                    ExprKind::Apply(Oper::Query { from: f, to: t }, vec![p.clone()]),
                    bool_,
                );
                self.spill(q, fx, out)
            };
            acc = Some(match acc {
                None => q,
                Some(prev) => Expr::new(ExprKind::And(Box::new(prev), Box::new(q)), bool_),
            });
        }
        acc.unwrap_or_else(|| Expr::new(ExprKind::Bool(true), bool_))
    }

    /// Emits `if (obj == null) trap NullCheck`.
    fn emit_null_check(&mut self, obj: Expr, out: &mut Vec<Stmt>) {
        let bool_ = self.module.store.bool_;
        let void = self.module.store.void;
        let oty = obj.ty;
        let is_null = Expr::new(
            ExprKind::Apply(
                Oper::Eq(oty),
                vec![obj, Expr::new(ExprKind::Null, oty)],
            ),
            bool_,
        );
        out.push(Stmt::If(
            is_null,
            vec![Stmt::Expr(Expr::new(ExprKind::Trap(Exception::NullCheck), void))],
            vec![],
        ));
    }

    /// Wrapper for `Array<T>.new` when the element splits into columns; a
    /// demand, logged as one call like [`Norm::oper_wrapper`].
    fn array_ctor_wrapper(&mut self, elem: Type) -> MethodId {
        let log = self.log.take();
        let id = self.build_array_ctor_wrapper(elem);
        self.log = log;
        self.note(NormDemand::ArrayNew(elem, id));
        id
    }

    fn build_array_ctor_wrapper(&mut self, elem: Type) -> MethodId {
        let op = Oper::Cast {
            // Reuse the wrapper map keyed by a synthetic op; array ctors are
            // keyed by their (normalized) element type via Query to avoid a
            // second map.
            from: self.norm_type(elem),
            to: {
                let ne = self.norm_type(elem);
                self.module.store.array(ne)
            },
        };
        if let Some(&m) = self.wrapper_map.get(&op) {
            return m;
        }
        let int = self.module.store.int;
        let cols = self.pieces_of(elem);
        let mut fx = Fx {
            local_map: vec![],
            new_locals: vec![Local { name: "n".into(), ty: int, mutable: false }],
            new_param_count: 1,
        };
        let mut out = Vec::new();
        let n = Expr::new(ExprKind::Local(LocalId(0)), int);
        let pieces: Vec<Expr> = cols
            .iter()
            .map(|&ct| {
                let arr = self.module.store.array(ct);
                let nw = Expr::new(ExprKind::ArrayNew(Box::new(n.clone())), arr);
                self.spill(nw, &mut fx, &mut out)
            })
            .collect();
        let tys: Vec<Type> = pieces.iter().map(|p| p.ty).collect();
        let rty = self.module.store.tuple(tys);
        out.push(Stmt::Return(Some(Expr::new(ExprKind::Tuple(pieces), rty))));
        let id = self.reserve_method(Method {
            name: "<arraynew>".into(),
            owner: None,
            is_private: true,
            kind: MethodKind::Normal,
            type_params: vec![],
            param_count: 1,
            locals: fx.new_locals,
            ret: rty,
            body: Some(Body { stmts: out }),
            vtable_index: None,
        });
        self.wrapper_map.insert(op, id);
        id
    }
}

/// Normalizer per-method context.
struct Fx {
    local_map: Vec<Vec<LocalId>>,
    new_locals: Vec<Local>,
    new_param_count: usize,
}

/// True if the expression can be duplicated-or-dropped safely and evaluated
/// out of order with respect to effects: no traps, no writes, no allocation
/// identity beyond single use.
fn is_pure_scalar(e: &Expr) -> bool {
    use ExprKind::*;
    match &e.kind {
        Int(_) | Byte(_) | Bool(_) | Unit | Null | Local(_) | Global(_) | OpClosure(_)
        | FuncRef { .. } | CtorRef { .. } | ArrayNewRef { .. } | BuiltinRef(_) => true,
        Apply(op, args) => {
            let trapping = matches!(
                op,
                Oper::IntDiv | Oper::IntMod | Oper::Cast { .. }
            );
            !trapping && args.iter().all(is_pure_scalar)
        }
        And(a, b) | Or(a, b) => is_pure_scalar(a) && is_pure_scalar(b),
        Ternary { cond, then, els } => {
            is_pure_scalar(cond) && is_pure_scalar(then) && is_pure_scalar(els)
        }
        TupleIndex(b, _) => is_pure_scalar(b),
        _ => false,
    }
}
