//! Best-effort type-argument inference (paper §2.4).
//!
//! Virgil uses "a best-effort type inference algorithm for type arguments to
//! both classes and methods" driven by a bidirectional typechecking approach.
//! The workhorse here is *structural matching with variance*: given a
//! parameter type containing inference variables and the concrete type of the
//! supplied argument, bind each variable consistently. Inference may fail —
//! the user then supplies explicit `<...>` arguments.

use crate::hierarchy::Hierarchy;
use crate::relations::is_subtype;
use crate::store::{Type, TypeKind, TypeStore, TypeVarId};
use std::collections::HashMap;

/// Accumulates variable bindings during inference.
#[derive(Clone, Debug, Default)]
pub struct InferCtx {
    /// Variables eligible for binding.
    bindable: Vec<TypeVarId>,
    /// Current solution.
    pub bindings: HashMap<TypeVarId, Type>,
}

impl InferCtx {
    /// Creates a context that may bind exactly `vars`.
    pub fn new(vars: &[TypeVarId]) -> InferCtx {
        InferCtx { bindable: vars.to_vec(), bindings: HashMap::new() }
    }

    /// True if `v` may be bound by this inference.
    pub fn is_bindable(&self, v: TypeVarId) -> bool {
        self.bindable.contains(&v)
    }

    /// The solution for `v`, if any.
    pub fn get(&self, v: TypeVarId) -> Option<Type> {
        self.bindings.get(&v).copied()
    }

    /// True if every bindable variable has a solution.
    pub fn is_complete(&self) -> bool {
        self.bindable.iter().all(|v| self.bindings.contains_key(v))
    }
}

/// Matches the concrete `actual` type against `expected` (which may contain
/// bindable variables), updating `ctx`. Returns `false` if the shapes are
/// incompatible under the variance of each position.
///
/// In covariant position an existing binding is widened when the new
/// candidate is a supertype; in invariant position bindings must agree
/// exactly.
pub fn match_types(
    store: &mut TypeStore,
    hier: &Hierarchy,
    expected: Type,
    actual: Type,
    ctx: &mut InferCtx,
) -> bool {
    match_var(store, hier, expected, actual, ctx, Polarity::Co)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Polarity {
    Co,
    Contra,
    Inv,
}

impl Polarity {
    fn flip(self) -> Polarity {
        match self {
            Polarity::Co => Polarity::Contra,
            Polarity::Contra => Polarity::Co,
            Polarity::Inv => Polarity::Inv,
        }
    }
}

fn bind(
    store: &mut TypeStore,
    hier: &Hierarchy,
    v: TypeVarId,
    actual: Type,
    ctx: &mut InferCtx,
    pol: Polarity,
) -> bool {
    match ctx.get(v) {
        None => {
            ctx.bindings.insert(v, actual);
            true
        }
        Some(prev) if prev == actual => true,
        Some(prev) => match pol {
            Polarity::Inv => false,
            Polarity::Co => {
                // Widen toward a common supertype if one side subsumes.
                if is_subtype(store, hier, actual, prev) {
                    true
                } else if is_subtype(store, hier, prev, actual) {
                    ctx.bindings.insert(v, actual);
                    true
                } else {
                    false
                }
            }
            Polarity::Contra => {
                // Narrow toward a common subtype if one side subsumes.
                if is_subtype(store, hier, prev, actual) {
                    true
                } else if is_subtype(store, hier, actual, prev) {
                    ctx.bindings.insert(v, actual);
                    true
                } else {
                    false
                }
            }
        },
    }
}

fn match_var(
    store: &mut TypeStore,
    hier: &Hierarchy,
    expected: Type,
    actual: Type,
    ctx: &mut InferCtx,
    pol: Polarity,
) -> bool {
    // The poisoned error type matches anything without binding: the error it
    // stands for was already reported.
    if matches!(store.kind(expected), TypeKind::Error)
        || matches!(store.kind(actual), TypeKind::Error)
    {
        return true;
    }
    if let TypeKind::Var(v) = *store.kind(expected) {
        if ctx.is_bindable(v) {
            return bind(store, hier, v, actual, ctx, pol);
        }
    }
    if expected == actual {
        // Identity match — but any bindable variables inside must still be
        // solved (to themselves). This is exactly what a recursive call like
        // `map(list.tail, f)` inside `map<A, B>` needs: A ↦ A, B ↦ B.
        let mut vars = Vec::new();
        store.collect_vars(expected, &mut vars);
        for v in vars {
            if ctx.is_bindable(v) {
                let tv = store.var(v);
                if !bind(store, hier, v, tv, ctx, Polarity::Inv) {
                    return false;
                }
            }
        }
        return true;
    }
    match (store.kind(expected).clone(), store.kind(actual).clone()) {
        (TypeKind::Tuple(xs), TypeKind::Tuple(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys.iter())
            .all(|(&x, &y)| match_var(store, hier, x, y, ctx, pol)),
        (TypeKind::Array(x), TypeKind::Array(y)) => {
            match_var(store, hier, x, y, ctx, Polarity::Inv)
        }
        (TypeKind::Function(p1, r1), TypeKind::Function(p2, r2)) => {
            match_var(store, hier, p1, p2, ctx, pol.flip())
                && match_var(store, hier, r1, r2, ctx, pol)
        }
        (TypeKind::Class(c1, args1), TypeKind::Class(..)) => {
            // Walk the actual's supertype chain to find the same class head
            // (handles an argument of a subclass of the expected class).
            for sup in hier.supertypes(store, actual) {
                if let TypeKind::Class(c2, args2) = store.kind(sup).clone() {
                    if c1 == c2 {
                        return args1
                            .iter()
                            .zip(args2.iter())
                            .all(|(&x, &y)| match_var(store, hier, x, y, ctx, Polarity::Inv));
                    }
                }
            }
            false
        }
        (_, TypeKind::Null) => {
            // `null` matches any nullable expected type without binding info.
            matches!(
                store.kind(expected),
                TypeKind::Class(..) | TypeKind::Array(_) | TypeKind::Function(..) | TypeKind::Var(_)
            )
        }
        _ => {
            // No vars to bind below: fall back to plain subtyping in the
            // direction demanded by the polarity.
            if store.is_polymorphic(expected) {
                return false;
            }
            match pol {
                Polarity::Co => is_subtype(store, hier, actual, expected),
                Polarity::Contra => is_subtype(store, hier, expected, actual),
                Polarity::Inv => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::ClassInfo;

    fn setup() -> (TypeStore, Hierarchy) {
        (TypeStore::new(), Hierarchy::new())
    }

    #[test]
    fn bind_simple_var() {
        let (mut s, h) = setup();
        let v = TypeVarId(0);
        let tv = s.var(v);
        let mut ctx = InferCtx::new(&[v]);
        { let __t = s.int; assert!(match_types(&mut s, &h, tv, __t, &mut ctx)); }
        assert_eq!(ctx.get(v), Some(s.int));
        assert!(ctx.is_complete());
    }

    #[test]
    fn bind_through_tuple() {
        // time<A, B>(func: A -> B, a: A): matching (int -> bool, int).
        let (mut s, h) = setup();
        let (a, b) = (TypeVarId(0), TypeVarId(1));
        let (ta, tb) = (s.var(a), s.var(b));
        let f_expected = s.function(ta, tb);
        let f_actual = s.function(s.int, s.bool_);
        let mut ctx = InferCtx::new(&[a, b]);
        assert!(match_types(&mut s, &h, f_expected, f_actual, &mut ctx));
        { let __t = s.int; assert!(match_types(&mut s, &h, ta, __t, &mut ctx)); }
        assert_eq!(ctx.get(a), Some(s.int));
        assert_eq!(ctx.get(b), Some(s.bool_));
    }

    #[test]
    fn bind_var_to_tuple_type() {
        // Listing (d11'): List.new((3, 4), null) infers T = (int, int).
        let (mut s, h) = setup();
        let v = TypeVarId(0);
        let tv = s.var(v);
        let pair = s.tuple(vec![s.int, s.int]);
        let mut ctx = InferCtx::new(&[v]);
        assert!(match_types(&mut s, &h, tv, pair, &mut ctx));
        assert_eq!(ctx.get(v), Some(pair));
    }

    #[test]
    fn conflicting_bindings_fail_when_unrelated() {
        let (mut s, h) = setup();
        let v = TypeVarId(0);
        let tv = s.var(v);
        let pair = s.tuple(vec![tv, tv]);
        let actual = s.tuple(vec![s.int, s.bool_]);
        let mut ctx = InferCtx::new(&[v]);
        assert!(!match_types(&mut s, &h, pair, actual, &mut ctx));
    }

    #[test]
    fn covariant_widening_to_superclass() {
        let (mut s, mut h) = setup();
        let animal_id = h.add_class(ClassInfo { name: "Animal".into(), type_params: vec![], parent: None });
        let bat_id = h.add_class(ClassInfo { name: "Bat".into(), type_params: vec![], parent: Some((animal_id, vec![])) });
        let animal = s.class(animal_id, vec![]);
        let bat = s.class(bat_id, vec![]);
        let v = TypeVarId(0);
        let tv = s.var(v);
        let pair = s.tuple(vec![tv, tv]);
        let actual = s.tuple(vec![bat, animal]);
        let mut ctx = InferCtx::new(&[v]);
        assert!(match_types(&mut s, &h, pair, actual, &mut ctx));
        assert_eq!(ctx.get(v), Some(animal));
    }

    #[test]
    fn class_head_matching_through_subclass() {
        // apply<A>(list: List<A>, ...) given a SubList<int> argument.
        let (mut s, mut h) = setup();
        let list_tv = TypeVarId(0);
        let list_id = h.add_class(ClassInfo { name: "List".into(), type_params: vec![list_tv], parent: None });
        let sub_tv = TypeVarId(1);
        let sub_parent_arg = s.var(sub_tv);
        let sub_id = h.add_class(ClassInfo {
            name: "SubList".into(),
            type_params: vec![sub_tv],
            parent: Some((list_id, vec![sub_parent_arg])),
        });
        let a = TypeVarId(10);
        let ta = s.var(a);
        let expected = s.class(list_id, vec![ta]);
        let actual = s.class(sub_id, vec![s.int]);
        let mut ctx = InferCtx::new(&[a]);
        assert!(match_types(&mut s, &h, expected, actual, &mut ctx));
        assert_eq!(ctx.get(a), Some(s.int));
    }

    #[test]
    fn null_matches_class_without_binding() {
        let (mut s, mut h) = setup();
        let tv = TypeVarId(0);
        let list_id = h.add_class(ClassInfo { name: "List".into(), type_params: vec![tv], parent: None });
        let a = TypeVarId(1);
        let ta = s.var(a);
        let expected = s.class(list_id, vec![ta]);
        let mut ctx = InferCtx::new(&[a]);
        { let __t = s.null; assert!(match_types(&mut s, &h, expected, __t, &mut ctx)); }
        assert!(!ctx.is_complete()); // null alone does not determine A
    }

    #[test]
    fn contravariant_position_narrows() {
        // Matching parameter types of functions flips polarity.
        let (mut s, mut h) = setup();
        let animal_id = h.add_class(ClassInfo { name: "Animal".into(), type_params: vec![], parent: None });
        let bat_id = h.add_class(ClassInfo { name: "Bat".into(), type_params: vec![], parent: Some((animal_id, vec![])) });
        let animal = s.class(animal_id, vec![]);
        let bat = s.class(bat_id, vec![]);
        let v = TypeVarId(0);
        let tv = s.var(v);
        // expected: (T -> void, T -> void); actual: (Animal -> void, Bat -> void)
        let f_t = s.function(tv, s.void);
        let expected = s.tuple(vec![f_t, f_t]);
        let f_a = s.function(animal, s.void);
        let f_b = s.function(bat, s.void);
        let actual = s.tuple(vec![f_a, f_b]);
        let mut ctx = InferCtx::new(&[v]);
        assert!(match_types(&mut s, &h, expected, actual, &mut ctx));
        // T must be the common subtype usable with both: Bat.
        assert_eq!(ctx.get(v), Some(bat));
    }

    #[test]
    fn non_bindable_var_must_match_exactly() {
        let (mut s, h) = setup();
        let outer = TypeVarId(0);
        let tv = s.var(outer);
        let mut ctx = InferCtx::new(&[TypeVarId(1)]);
        // `outer` is not bindable: only an identical var matches.
        assert!(match_types(&mut s, &h, tv, tv, &mut ctx));
        { let __t = s.int; assert!(!match_types(&mut s, &h, tv, __t, &mut ctx)); }
    }

    #[test]
    fn error_type_matches_without_binding() {
        let (mut s, h) = setup();
        let v = TypeVarId(0);
        let tv = s.var(v);
        let mut ctx = InferCtx::new(&[v]);
        // The poisoned error type matches any expected type — including an
        // unbound inference var, which must stay unbound (no `<error>` leaks
        // into inferred type arguments).
        let err = s.error;
        assert!(match_types(&mut s, &h, tv, err, &mut ctx));
        assert_eq!(ctx.get(v), None);
        let int = s.int;
        assert!(match_types(&mut s, &h, err, int, &mut ctx));
    }
}
