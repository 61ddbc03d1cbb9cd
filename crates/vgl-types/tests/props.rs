//! Property tests over the type system: subtyping laws, degenerate tuple
//! rules, flattening invariants, and cast-relation coherence over randomly
//! generated types.
//!
//! Types are generated from the workspace's seeded PRNG ([`vgl_fuzz::Rng`],
//! deterministic, dependency-free); failures print the seed.
//! `VGL_PROP_CASES` overrides the default 128 cases.

use vgl_fuzz::Rng;
use vgl_types::{
    cast_relation, is_subtype, CastRelation, ClassInfo, Hierarchy, Type, TypeStore,
};

fn cases() -> u64 {
    std::env::var("VGL_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// A recipe for building a random type in a fresh store (recipes cannot
/// carry the store itself).
#[derive(Clone, Debug)]
enum TyRecipe {
    Void,
    Bool,
    Byte,
    Int,
    /// One of the fixture classes (0 = Animal, 1 = Bat, 2 = Vampire, 3 = Other).
    Class(u8),
    Array(Box<TyRecipe>),
    Tuple(Vec<TyRecipe>),
    Function(Box<TyRecipe>, Box<TyRecipe>),
}

fn gen_ty(rng: &mut Rng, depth: u32) -> TyRecipe {
    let leaf = |rng: &mut Rng| match rng.below(5) {
        0 => TyRecipe::Void,
        1 => TyRecipe::Bool,
        2 => TyRecipe::Byte,
        3 => TyRecipe::Int,
        _ => TyRecipe::Class(rng.below(4) as u8),
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(4) {
        0 => leaf(rng),
        1 => TyRecipe::Array(Box::new(gen_ty(rng, depth - 1))),
        2 => {
            let n = rng.below(4);
            TyRecipe::Tuple((0..n).map(|_| gen_ty(rng, depth - 1)).collect())
        }
        _ => TyRecipe::Function(
            Box::new(gen_ty(rng, depth - 1)),
            Box::new(gen_ty(rng, depth - 1)),
        ),
    }
}

struct Fixture {
    store: TypeStore,
    hier: Hierarchy,
    classes: Vec<Type>,
}

fn fixture() -> Fixture {
    let mut store = TypeStore::new();
    let mut hier = Hierarchy::new();
    let animal = hier.add_class(ClassInfo { name: "Animal".into(), type_params: vec![], parent: None });
    let bat = hier.add_class(ClassInfo { name: "Bat".into(), type_params: vec![], parent: Some((animal, vec![])) });
    let vampire = hier.add_class(ClassInfo { name: "Vampire".into(), type_params: vec![], parent: Some((bat, vec![])) });
    let other = hier.add_class(ClassInfo { name: "Other".into(), type_params: vec![], parent: None });
    let classes = vec![
        store.class(animal, vec![]),
        store.class(bat, vec![]),
        store.class(vampire, vec![]),
        store.class(other, vec![]),
    ];
    Fixture { store, hier, classes }
}

fn build(f: &mut Fixture, r: &TyRecipe) -> Type {
    match r {
        TyRecipe::Void => f.store.void,
        TyRecipe::Bool => f.store.bool_,
        TyRecipe::Byte => f.store.byte,
        TyRecipe::Int => f.store.int,
        TyRecipe::Class(i) => f.classes[*i as usize % f.classes.len()],
        TyRecipe::Array(e) => {
            let t = build(f, e);
            f.store.array(t)
        }
        TyRecipe::Tuple(es) => {
            let ts: Vec<Type> = es.iter().map(|e| build(f, e)).collect();
            f.store.tuple(ts)
        }
        TyRecipe::Function(p, ret) => {
            let pt = build(f, p);
            let rt = build(f, ret);
            f.store.function(pt, rt)
        }
    }
}

/// Runs `body` once per case with a per-test seed stream.
fn for_cases(tag: u64, mut body: impl FnMut(u64, &mut Rng)) {
    for case in 0..cases() {
        let seed = (tag << 32) | case;
        let mut rng = Rng::new(seed);
        body(seed, &mut rng);
    }
}

#[test]
fn subtyping_is_reflexive() {
    for_cases(0x01, |seed, rng| {
        let r = gen_ty(rng, 3);
        let mut f = fixture();
        let t = build(&mut f, &r);
        assert!(is_subtype(&mut f.store, &f.hier, t, t), "seed {seed}: {r:?}");
    });
}

#[test]
fn subtyping_is_transitive() {
    for_cases(0x02, |seed, rng| {
        let (a, b, c) = (gen_ty(rng, 3), gen_ty(rng, 3), gen_ty(rng, 3));
        let mut f = fixture();
        let (ta, tb, tc) = (build(&mut f, &a), build(&mut f, &b), build(&mut f, &c));
        if is_subtype(&mut f.store, &f.hier, ta, tb)
            && is_subtype(&mut f.store, &f.hier, tb, tc)
        {
            assert!(
                is_subtype(&mut f.store, &f.hier, ta, tc),
                "seed {seed}: {a:?} <: {b:?} <: {c:?}"
            );
        }
    });
}

#[test]
fn subtyping_is_antisymmetric() {
    for_cases(0x03, |seed, rng| {
        let (a, b) = (gen_ty(rng, 3), gen_ty(rng, 3));
        let mut f = fixture();
        let (ta, tb) = (build(&mut f, &a), build(&mut f, &b));
        if is_subtype(&mut f.store, &f.hier, ta, tb)
            && is_subtype(&mut f.store, &f.hier, tb, ta)
        {
            // Interning makes structural equality id equality.
            assert_eq!(ta, tb, "seed {seed}: {a:?} / {b:?}");
        }
    });
}

#[test]
fn interning_is_canonical() {
    for_cases(0x04, |seed, rng| {
        // Building the same recipe twice yields the same id.
        let r = gen_ty(rng, 3);
        let mut f = fixture();
        let t1 = build(&mut f, &r);
        let t2 = build(&mut f, &r);
        assert_eq!(t1, t2, "seed {seed}: {r:?}");
    });
}

#[test]
fn subsumption_implies_legal_cast() {
    for_cases(0x05, |seed, rng| {
        let (a, b) = (gen_ty(rng, 3), gen_ty(rng, 3));
        let mut f = fixture();
        let (ta, tb) = (build(&mut f, &a), build(&mut f, &b));
        if is_subtype(&mut f.store, &f.hier, ta, tb) {
            assert_eq!(
                cast_relation(&mut f.store, &f.hier, ta, tb),
                CastRelation::Subsumption,
                "seed {seed}: {a:?} <: {b:?}"
            );
        }
    });
}

#[test]
fn flatten_has_no_tuples_or_voids() {
    for_cases(0x06, |seed, rng| {
        let r = gen_ty(rng, 3);
        let mut f = fixture();
        let t = build(&mut f, &r);
        for p in f.store.flatten(t) {
            assert!(
                !matches!(f.store.kind(p), vgl_types::TypeKind::Tuple(_)),
                "seed {seed}: {r:?}"
            );
            assert!(!f.store.is_void(p), "seed {seed}: {r:?}");
        }
    });
}

#[test]
fn scalar_width_matches_flatten() {
    for_cases(0x07, |seed, rng| {
        let r = gen_ty(rng, 3);
        let mut f = fixture();
        let t = build(&mut f, &r);
        assert_eq!(
            f.store.scalar_width(t),
            f.store.flatten(t).len(),
            "seed {seed}: {r:?}"
        );
    });
}

#[test]
fn function_variance_law() {
    for_cases(0x08, |seed, rng| {
        // (P1 -> R1) <: (P2 -> R2)  iff  P2 <: P1 and R1 <: R2.
        let (p1, r1, p2, r2) =
            (gen_ty(rng, 3), gen_ty(rng, 3), gen_ty(rng, 3), gen_ty(rng, 3));
        let mut f = fixture();
        let (tp1, tr1) = (build(&mut f, &p1), build(&mut f, &r1));
        let (tp2, tr2) = (build(&mut f, &p2), build(&mut f, &r2));
        let f1 = f.store.function(tp1, tr1);
        let f2 = f.store.function(tp2, tr2);
        let lhs = is_subtype(&mut f.store, &f.hier, f1, f2);
        let rhs = is_subtype(&mut f.store, &f.hier, tp2, tp1)
            && is_subtype(&mut f.store, &f.hier, tr1, tr2);
        assert_eq!(lhs, rhs, "seed {seed}: ({p1:?} -> {r1:?}) vs ({p2:?} -> {r2:?})");
    });
}

#[test]
fn tuple_covariance_law() {
    for_cases(0x09, |seed, rng| {
        let xs: Vec<TyRecipe> = (0..2 + rng.below(2)).map(|_| gen_ty(rng, 3)).collect();
        let ys: Vec<TyRecipe> = (0..2 + rng.below(2)).map(|_| gen_ty(rng, 3)).collect();
        let mut f = fixture();
        let tx: Vec<Type> = xs.iter().map(|r| build(&mut f, r)).collect();
        let ty: Vec<Type> = ys.iter().map(|r| build(&mut f, r)).collect();
        let tt = f.store.tuple(tx.clone());
        let ts = f.store.tuple(ty.clone());
        let lhs = is_subtype(&mut f.store, &f.hier, tt, ts);
        let rhs = tx.len() == ty.len()
            && tx.iter().zip(ty.iter()).all(|(&x, &y)| {
                is_subtype(&mut f.store, &f.hier, x, y)
            });
        assert_eq!(lhs, rhs, "seed {seed}: {xs:?} vs {ys:?}");
    });
}
