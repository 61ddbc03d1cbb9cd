//! The per-instance pass cache: content-based identity for post-mono
//! method instances.
//!
//! Monomorphization copies a polymorphic method once per distinct
//! type-argument assignment (§4.3). When a type parameter does not actually
//! reach the method's signature, locals, or body — phantom parameters,
//! dead-branch-only uses that mono already resolved, or plain duplicated
//! helper bodies — the copies are **structurally identical**, and running
//! normalize/optimize on each is wasted work. Instance identity here is
//! content-based, not name-based: two methods are duplicates iff everything
//! *except their name* (owner, kind, privacy, signature, locals, body,
//! vtable slot) hashes equal under a 128-bit fingerprint.
//!
//! Every fingerprint here — methods, modules, the module context, and raw
//! bytes ([`fingerprint_bytes`]) — is one construction: the derived `Hash`
//! of the IR fed into two independent 64-bit streams (FNV-1a and a
//! 31-multiplier stream), so no intermediate strings are built. Types hash
//! as interned ids, which is exactly right: the interner is deterministic,
//! so structurally identical methods reference identical ids.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use vgl_ir::{Method, Module};
use vgl_obs::{since_epoch, WorkerSample};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent 64-bit hash streams fed through [`Hasher`] — a 128-bit
/// combined key makes accidental collision between distinct instances
/// (which would silently merge their compiled bodies) a non-concern.
/// Fingerprinting is on the hot path of every warm daemon compile (every
/// method of every request is fingerprinted before the function store can
/// answer), so the IR tree is hashed directly, with no formatting.
struct FingerprintHasher {
    a: u64,
    b: u64,
}

impl FingerprintHasher {
    fn new() -> FingerprintHasher {
        FingerprintHasher { a: FNV_OFFSET, b: 0x9e37_79b9_7f4a_7c15 }
    }
}

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = self.b.wrapping_mul(31).wrapping_add(u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

/// 128-bit fingerprint of raw bytes (a source file, say) under the same
/// two streams as every other fingerprint in this module.
pub fn fingerprint_bytes(bytes: &[u8]) -> (u64, u64) {
    let mut h = FingerprintHasher::new();
    h.write(bytes);
    (h.a, h.b)
}

/// 128-bit content fingerprint of a post-mono method, **excluding its
/// name**: two methods with equal fingerprints are interchangeable inputs
/// to normalize and optimize.
pub fn method_fingerprint(m: &Method) -> (u64, u64) {
    let mut h = FingerprintHasher::new();
    m.owner.hash(&mut h);
    m.is_private.hash(&mut h);
    m.kind.hash(&mut h);
    m.type_params.hash(&mut h);
    m.param_count.hash(&mut h);
    m.locals.hash(&mut h);
    m.ret.hash(&mut h);
    m.body.hash(&mut h);
    m.vtable_index.hash(&mut h);
    (h.a, h.b)
}

/// A single 64-bit content hash of a whole module — classes, methods
/// (names included this time), globals, and entry point. Used by the
/// determinism suite to compare `--jobs 1` vs `--jobs 8` compiles beyond
/// the disassembly text. The type interner itself is excluded (its map is
/// unordered); every type the program can observe is reachable through the
/// hashed items as interned ids.
pub fn module_fingerprint(m: &Module) -> u64 {
    let mut h = FingerprintHasher::new();
    m.classes.hash(&mut h);
    m.methods.hash(&mut h);
    m.globals.hash(&mut h);
    m.main.hash(&mut h);
    h.a ^ h.b.rotate_left(32)
}

/// 128-bit digest of everything compiled bytecode can reference **by
/// index** across compiles: the full type-interner dump (id order), the
/// class hierarchy and layouts, the globals, the entry point, and every
/// method's *signature* (owner, kind, privacy, parameter types, return
/// type, vtable slot) — but **not** method names or bodies.
///
/// Two optimized modules with equal digests agree on every id space a
/// [`method_fingerprint`]-keyed artifact embeds — type ids, `MethodId` /
/// `FuncId`, `ClassId`, `GlobalId`, field slots, vtable slots — so a
/// function's fused code cached under one module can be soundly reused in
/// the other wherever the fingerprints of the optimized bodies also match.
/// Bodies are excluded (they are what the fingerprints compare); names are
/// excluded so renames stay warm, the same policy as `method_fingerprint`.
pub fn context_digest(module: &Module) -> (u64, u64) {
    let mut h = FingerprintHasher::new();
    module.store.len().hash(&mut h);
    for k in module.store.kinds() {
        k.hash(&mut h);
    }
    module.hier.hash(&mut h);
    module.classes.hash(&mut h);
    module.globals.hash(&mut h);
    module.main.hash(&mut h);
    module.methods.len().hash(&mut h);
    for m in &module.methods {
        m.owner.hash(&mut h);
        m.is_private.hash(&mut h);
        m.kind.hash(&mut h);
        m.type_params.hash(&mut h);
        m.param_count.hash(&mut h);
        for l in &m.locals[..m.param_count] {
            l.ty.hash(&mut h);
        }
        m.ret.hash(&mut h);
        m.vtable_index.hash(&mut h);
    }
    (h.a, h.b)
}

/// Cache effectiveness counters for one pass over one module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Methods with bodies that were looked up.
    pub lookups: usize,
    /// Methods that skipped the pass: duplicates, whose result is copied
    /// from their representative, and in normalize the bodies a reuse plan
    /// supplied.
    pub hits: usize,
    /// Methods that did the work.
    pub unique: usize,
}

impl CacheStats {
    /// Hits per lookup, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.unique += other.unique;
    }
}

/// The duplicate-instance map for one module: `rep[i]` is the index of the
/// first method whose fingerprint equals method `i`'s (`rep[i] == i` for
/// representatives and for methods without bodies).
#[derive(Clone, Debug, Default)]
pub struct DupMap {
    /// Representative index per method.
    pub rep: Vec<usize>,
    /// The [`method_fingerprint`] of each method the map was built from,
    /// `None` for methods without bodies; empty for the identity map, which
    /// takes none.
    pub prints: Vec<Option<(u64, u64)>>,
    /// Lookup/hit counters from building the map.
    pub stats: CacheStats,
}

impl DupMap {
    /// The identity map (cache disabled): every method represents itself.
    pub fn identity(n: usize) -> DupMap {
        DupMap { rep: (0..n).collect(), prints: Vec::new(), stats: CacheStats::default() }
    }

    /// True if `i` is a duplicate of an earlier method.
    pub fn is_dup(&self, i: usize) -> bool {
        self.rep[i] != i
    }
}

/// Builds the duplicate map for `module`: fingerprints every bodied
/// method, then maps every method, in index order, to the first method
/// with its fingerprint. The fingerprinting's span comes back as one
/// `hash` sample, so a trace shows how much of a phase is hashing.
pub fn dup_groups(module: &Module) -> (DupMap, WorkerSample) {
    let start = since_epoch();
    let prints: Vec<Option<(u64, u64)>> =
        module.methods.iter().map(|m| m.body.as_ref().map(|_| method_fingerprint(m))).collect();
    let sample = WorkerSample {
        phase: "hash",
        worker: 0,
        items: prints.len(),
        start,
        duration: since_epoch().saturating_sub(start),
    };
    let mut first: HashMap<(u64, u64), usize> = HashMap::new();
    let mut rep: Vec<usize> = (0..module.methods.len()).collect();
    let mut stats = CacheStats::default();
    for (i, print) in prints.iter().enumerate() {
        let Some(key) = *print else { continue };
        stats.lookups += 1;
        let r = *first.entry(key).or_insert(i);
        rep[i] = r;
        if r == i {
            stats.unique += 1;
        } else {
            stats.hits += 1;
        }
    }
    (DupMap { rep, prints, stats }, sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_streams_are_independent_and_stable() {
        // FNV-1a and the 31-multiplier stream of "abc", pinned: served
        // source keys must not change between builds.
        assert_eq!(fingerprint_bytes(b"abc"), (0xe71f_a219_0541_574b, 0xd9be_3983_fcdf_082d));
        // Chunking must not matter: the helper is the structural hasher.
        let mut h = FingerprintHasher::new();
        h.write(b"a");
        h.write(b"bc");
        assert_eq!((h.a, h.b), fingerprint_bytes(b"abc"));
        let (a, b) = fingerprint_bytes(b"abd");
        assert_ne!(a, h.a);
        assert_ne!(b, h.b);
    }

    #[test]
    fn identity_map_has_no_dups() {
        let m = DupMap::identity(5);
        for i in 0..5 {
            assert!(!m.is_dup(i));
        }
        assert_eq!(m.stats.hits, 0);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { lookups: 4, hits: 3, unique: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-9);
    }
}
