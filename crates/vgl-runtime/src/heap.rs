//! A precise garbage-collected heap for the bytecode VM: a bump-allocated
//! **nursery** with minor (promoting) collections on top of the paper's
//! semispace (Cheney) collector, which survives as the major collector.
//!
//! The paper (§5) describes Virgil's native runtime: "a precise semi-space
//! garbage collector (also written in Virgil)". This module started as that
//! substrate in Rust — tagged 64-bit values, bump allocation, and a copying
//! collector driven by explicit root slices — and now layers a generation on
//! top of it for long-running, allocation-heavy workloads:
//!
//! * **Nursery**: new cells bump-allocate into a small fixed window at the
//!   bottom of the heap. When it fills, a *minor* collection promotes the
//!   survivors into the mature space and resets the window — pause time is
//!   proportional to nursery survivors, not the whole heap.
//! * **Mature space**: the rest of the heap. Cells too large for the nursery
//!   are pre-tenured here directly. When the mature space can no longer
//!   absorb a nursery's worth of promotion, a *major* collection runs the
//!   original Cheney copy over everything.
//! * **Remembered set**: stores of a nursery reference into a mature cell go
//!   through the [`Heap::set_ref`] write barrier, which remembers the slot so
//!   minor collections can treat it as a root. The compiler back end emits
//!   the barrier only on statically ref-typed stores; scalar stores keep the
//!   barrier-free [`Heap::set`].
//!
//! A heap built with [`Heap::new`] has no nursery and degenerates to exactly
//! the original semispace collector (every collection is major); a heap from
//! [`Heap::with_nursery`] is generational.
//!
//! ## Value tagging
//!
//! Every VM value is a `u64`:
//!
//! * `....0` — a scalar; the payload is the value shifted left by one.
//! * `....1` — a heap reference; the payload is a slot index shifted left.
//!
//! `null` is the reference with index 0, which is never a valid allocation.
//!
//! ## Heap cells
//!
//! A cell is `[header][payload...]`. The header packs kind (2 bits), meta
//! (30 bits: class id for objects, unused for others) and payload length in
//! slots (32 bits). During collection the header is replaced by a forwarding
//! reference.
//!
//! ## Layout
//!
//! One address space, stable under promotion and growth:
//!
//! ```text
//! [0: reserved][1 .. nursery_end: nursery][nursery_end .. cap: mature]
//! ```
//!
//! [`Heap::grow`] extends the mature space upward, so nursery indices — and
//! every live reference — stay valid across growth.

/// Tagged VM value.
pub type Word = u64;

/// Bytes per heap slot (tagged 64-bit words).
pub const SLOT_BYTES: usize = 8;

/// The tagged `null` reference.
pub const NULL: Word = 1;

/// Scalar payload width in bits: the tag takes one of the 64.
pub const SCALAR_BITS: u32 = 63;

/// Largest value a tagged scalar can carry without wrapping.
pub const SCALAR_MAX: i64 = (1 << (SCALAR_BITS - 1)) - 1;

/// Smallest value a tagged scalar can carry without wrapping.
pub const SCALAR_MIN: i64 = -(1 << (SCALAR_BITS - 1));

/// True when `v` survives a `scalar`/[`as_scalar`] round trip unchanged.
pub fn scalar_fits(v: i64) -> bool {
    (SCALAR_MIN..=SCALAR_MAX).contains(&v)
}

/// Encodes a signed scalar.
///
/// The payload is 63 bits ([`SCALAR_MIN`]`..=`[`SCALAR_MAX`]); debug builds
/// assert the value fits. Callers that *want* modular reduction (none exist
/// in the VM today — language integers are 32-bit) must say so explicitly
/// with [`scalar_wrapping`].
pub fn scalar(v: i64) -> Word {
    debug_assert!(
        scalar_fits(v),
        "scalar {v} exceeds the 63-bit payload range \
         [{SCALAR_MIN}, {SCALAR_MAX}]; use scalar_wrapping for modular reduction"
    );
    scalar_wrapping(v)
}

/// Encodes a signed scalar with **explicit wrap-at-63-bits semantics**: the
/// value is reduced two's-complement into [`SCALAR_MIN`]`..=`[`SCALAR_MAX`],
/// i.e. `as_scalar(scalar_wrapping(v))` sign-extends the low 63 bits of `v`
/// (so `scalar_wrapping(i64::MAX)` round-trips to `-1`).
pub fn scalar_wrapping(v: i64) -> Word {
    ((v as u64) << 1) & !1
}

/// Decodes a signed scalar.
pub fn as_scalar(w: Word) -> i64 {
    (w as i64) >> 1
}

/// Encodes an `i32` (the common case).
pub fn from_i32(v: i32) -> Word {
    scalar(v as i64)
}

/// Decodes an `i32`.
pub fn as_i32(w: Word) -> i32 {
    as_scalar(w) as i32
}

/// True if `w` is a heap reference (including `null`).
pub fn is_ref(w: Word) -> bool {
    w & 1 == 1
}

/// Encodes a heap reference from a slot index.
pub fn make_ref(index: usize) -> Word {
    ((index as u64) << 1) | 1
}

/// Decodes a heap reference to a slot index.
pub fn ref_index(w: Word) -> usize {
    debug_assert!(is_ref(w));
    (w >> 1) as usize
}

/// What a heap cell holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellKind {
    /// An object; meta = class id.
    Object,
    /// An array; meta unused; payload = elements (possibly several slots per
    /// source-level element after normalization).
    Array,
    /// A closure cell: `[func id][bound receiver]`.
    Closure,
}

impl CellKind {
    fn code(self) -> u64 {
        match self {
            CellKind::Object => 0,
            CellKind::Array => 1,
            CellKind::Closure => 2,
        }
    }

    /// Checked decode: `None` for any code no allocation ever writes (a
    /// corrupted header, e.g. code 3).
    pub fn try_from_code(c: u64) -> Option<CellKind> {
        match c {
            0 => Some(CellKind::Object),
            1 => Some(CellKind::Array),
            2 => Some(CellKind::Closure),
            _ => None,
        }
    }

    /// Decodes a header kind code. Code 3 is never written by any
    /// allocation path, so seeing it means the header is corrupt: debug
    /// builds panic at the point of corruption instead of silently
    /// mis-tracing the cell as a closure.
    fn from_code(c: u64) -> CellKind {
        match CellKind::try_from_code(c) {
            Some(k) => k,
            None => {
                debug_assert!(false, "heap corruption: invalid cell kind code {c}");
                CellKind::Closure
            }
        }
    }
}

const FORWARD_BIT: u64 = 1 << 63;

fn header(kind: CellKind, meta: u32, len: usize) -> u64 {
    debug_assert!(meta < (1 << 30));
    debug_assert!(len < (1 << 32));
    (kind.code() << 61) | ((meta as u64) << 32) | len as u64
}

/// Which generation a collection worked on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GcKind {
    /// Nursery-only: survivors were promoted to the mature space; pause is
    /// proportional to nursery survivors.
    Minor,
    /// Full Cheney copy of everything reachable (the semispace collector;
    /// the only kind a [`Heap::new`] heap ever runs).
    #[default]
    Major,
}

impl GcKind {
    /// `"minor"` / `"major"` — the label every telemetry surface prints.
    pub fn label(self) -> &'static str {
        match self {
            GcKind::Minor => "minor",
            GcKind::Major => "major",
        }
    }
}

/// Allocation and collection statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated (explicit `new`).
    pub objects: usize,
    /// Arrays allocated.
    pub arrays: usize,
    /// Closure cells allocated.
    pub closures: usize,
    /// Tuple boxes allocated — **always zero after normalization**; the VM
    /// has no instruction that could allocate one (experiment E1).
    pub tuple_boxes: usize,
    /// Collections performed (minor + major).
    pub collections: usize,
    /// Minor (nursery) collections performed.
    pub minor_collections: usize,
    /// Major (full-heap) collections performed.
    pub major_collections: usize,
    /// Total slots copied by collections (promotion copies for minors, full
    /// live copies for majors).
    pub copied_slots: usize,
    /// Total slots promoted from the nursery to the mature space.
    pub promoted_slots: usize,
    /// Total slots allocated over time.
    pub allocated_slots: usize,
}

/// What one collection did — returned by [`Heap::collect`] so callers
/// (the VM's profiler) can report per-GC events without re-deriving them
/// from counter deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcInfo {
    /// Minor or major.
    pub kind: GcKind,
    /// Slots in use after the collection — for a major, exactly the live
    /// slots; for a minor, the mature occupancy (an upper bound: mature
    /// garbage is not traced by a minor).
    pub live_slots: usize,
    /// Slots physically copied by this collection: the promoted survivors
    /// for a minor, everything live for a major. Diverges from
    /// [`GcInfo::live_slots`] on every minor collection.
    pub copied_slots: usize,
    /// Heap capacity at collection time.
    pub capacity_slots: usize,
}

/// A generational copying heap (see the module docs for the layout).
#[derive(Debug)]
pub struct Heap {
    space: Vec<u64>,
    alt: Vec<u64>,
    /// First slot past the nursery; 1 means no nursery (pure semispace).
    nursery_end: usize,
    /// Nursery bump pointer in `[1, nursery_end]`.
    nursery_top: usize,
    /// Mature bump pointer in `[nursery_end, capacity]`.
    top: usize,
    /// Remembered set: absolute payload-slot indices in the mature space
    /// that held a nursery reference when last stored through the barrier.
    /// Duplicates are harmless (forwarding is idempotent); cleared by every
    /// collection (the nursery is empty afterwards, so no mature→nursery
    /// edges can exist).
    remset: Vec<usize>,
    /// Statistics.
    pub stats: HeapStats,
}

/// Returned when an allocation cannot proceed before a collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeedsGc;

impl Heap {
    /// Creates a heap with the given capacity in slots and **no nursery**:
    /// the original semispace collector, every collection major.
    pub fn new(capacity_slots: usize) -> Heap {
        Heap::with_nursery(capacity_slots, 0)
    }

    /// Creates a generational heap: `nursery_slots` of bump-allocated
    /// nursery (clamped to half the capacity) in front of the mature space.
    /// `nursery_slots == 0` degenerates to [`Heap::new`].
    pub fn with_nursery(capacity_slots: usize, nursery_slots: usize) -> Heap {
        let cap = capacity_slots.max(16);
        let nursery = nursery_slots.min(cap / 2);
        Heap {
            space: vec![0; cap],
            alt: vec![0; cap],
            // Slot 0 is reserved so that index 0 can mean null.
            nursery_end: 1 + nursery,
            nursery_top: 1,
            top: 1 + nursery,
            remset: Vec::new(),
            stats: HeapStats::default(),
        }
    }

    /// Slots currently in use (including the reserved null slot).
    pub fn used(&self) -> usize {
        1 + (self.nursery_top - 1) + (self.top - self.nursery_end)
    }

    /// Heap capacity in slots.
    pub fn capacity(&self) -> usize {
        self.space.len()
    }

    /// Nursery capacity in slots (0 for a semispace heap).
    pub fn nursery_capacity(&self) -> usize {
        self.nursery_end - 1
    }

    /// Slots currently in use in the nursery.
    pub fn nursery_used(&self) -> usize {
        self.nursery_top - 1
    }

    /// Slots currently in use in the mature space.
    pub fn mature_used(&self) -> usize {
        self.top - self.nursery_end
    }

    /// True when the heap has a nursery (collections split minor/major).
    pub fn is_generational(&self) -> bool {
        self.nursery_end > 1
    }

    /// Remembered-set entries currently pending (tests/telemetry).
    pub fn remset_len(&self) -> usize {
        self.remset.len()
    }

    /// Allocates a cell, returning its tagged reference, or [`NeedsGc`] when
    /// the target space is full (caller collects with roots, then retries;
    /// if it still fails the caller should force a major, grow, or abort).
    ///
    /// Cells that fit go to the nursery; larger ones are pre-tenured
    /// directly into the mature space (callers storing references into a
    /// fresh cell must therefore use [`Heap::set_ref`] — the cell may
    /// already be mature).
    pub fn try_alloc(&mut self, kind: CellKind, meta: u32, len: usize) -> Result<Word, NeedsGc> {
        let need = len + 1;
        let at = if need < self.nursery_end {
            if self.nursery_top + need > self.nursery_end {
                return Err(NeedsGc);
            }
            let at = self.nursery_top;
            self.nursery_top += need;
            at
        } else {
            if self.top + need > self.space.len() {
                return Err(NeedsGc);
            }
            let at = self.top;
            self.top += need;
            at
        };
        self.space[at] = header(kind, meta, len);
        for i in 0..len {
            self.space[at + 1 + i] = 0; // zero scalar
        }
        self.stats.allocated_slots += need;
        match kind {
            CellKind::Object => self.stats.objects += 1,
            CellKind::Array => self.stats.arrays += 1,
            CellKind::Closure => self.stats.closures += 1,
        }
        Ok(make_ref(at))
    }

    /// Grows the mature space (used when a collection cannot free enough).
    /// The nursery keeps its size and position, so all indices stay valid.
    pub fn grow(&mut self, min_free: usize) {
        let want = (self.space.len() * 2).max(self.top + min_free + 1);
        self.space.resize(want, 0);
        self.alt.resize(want, 0);
    }

    /// The kind of the cell behind `r`.
    pub fn kind(&self, r: Word) -> CellKind {
        let h = self.space[ref_index(r)];
        CellKind::from_code((h >> 61) & 3)
    }

    /// The meta field (class id for objects).
    pub fn meta(&self, r: Word) -> u32 {
        let h = self.space[ref_index(r)];
        ((h >> 32) & 0x3FFF_FFFF) as u32
    }

    /// Payload length in slots.
    pub fn len(&self, r: Word) -> usize {
        let h = self.space[ref_index(r)];
        (h & 0xFFFF_FFFF) as usize
    }

    /// True if the heap has no live allocations (trivially false after any
    /// allocation until a full collection with no roots).
    pub fn is_empty(&self) -> bool {
        self.used() <= 1
    }

    /// Reads payload slot `i` of `r`.
    pub fn get(&self, r: Word, i: usize) -> Word {
        debug_assert!(i < self.len(r), "heap read out of cell bounds");
        self.space[ref_index(r) + 1 + i]
    }

    /// Writes payload slot `i` of `r` **without** a write barrier — for
    /// values that are statically scalars. Storing a reference through this
    /// on a generational heap can lose the object at the next minor
    /// collection; debug builds assert against it.
    pub fn set(&mut self, r: Word, i: usize, v: Word) {
        debug_assert!(i < self.len(r), "heap write out of cell bounds");
        debug_assert!(
            !(self.in_nursery(v) && ref_index(r) >= self.nursery_end),
            "unbarriered store of a nursery reference into a mature cell; \
             the back end must emit set_ref here"
        );
        self.space[ref_index(r) + 1 + i] = v;
    }

    /// Writes payload slot `i` of `r` through the **generational write
    /// barrier**: a nursery reference stored into a mature cell is added to
    /// the remembered set so the next minor collection treats the slot as a
    /// root. The back end emits this for statically ref-typed stores;
    /// scalar stores keep the barrier-free [`Heap::set`].
    pub fn set_ref(&mut self, r: Word, i: usize, v: Word) {
        debug_assert!(i < self.len(r), "heap write out of cell bounds");
        let at = ref_index(r) + 1 + i;
        self.space[at] = v;
        if self.in_nursery(v) && ref_index(r) >= self.nursery_end {
            self.remset.push(at);
        }
    }

    fn in_nursery(&self, v: Word) -> bool {
        is_ref(v) && v != NULL && ref_index(v) < self.nursery_end
    }

    /// Collects garbage: a **minor** collection when the heap is
    /// generational and the mature space can absorb the worst-case
    /// promotion, otherwise a **major** one. Copies survivors, rewrites the
    /// roots in place, and returns what it did for observability.
    pub fn collect(&mut self, roots: &mut [&mut [Word]]) -> GcInfo {
        if self.is_generational() && self.space.len() - self.top >= self.nursery_used() {
            self.collect_minor(roots)
        } else {
            self.collect_major(roots)
        }
    }

    /// Minor collection: promotes live nursery cells into the mature space
    /// (roots = the given slices plus the remembered set), then resets the
    /// nursery. Mature cells never move. The caller must guarantee the
    /// mature space has at least [`Heap::nursery_used`] free slots.
    fn collect_minor(&mut self, roots: &mut [&mut [Word]]) -> GcInfo {
        self.stats.collections += 1;
        self.stats.minor_collections += 1;
        let promote_start = self.top;
        for root_slice in roots.iter_mut() {
            for slot in root_slice.iter_mut() {
                *slot = self.forward_minor(*slot);
            }
        }
        // Remembered slots are the mature→nursery edges; forwarding is
        // idempotent, so duplicates and stale (re-overwritten) entries are
        // both fine.
        let remset = std::mem::take(&mut self.remset);
        for &at in &remset {
            let v = self.space[at];
            self.space[at] = self.forward_minor(v);
        }
        // Cheney scan of the newly promoted region only.
        let mut scan = promote_start;
        while scan < self.top {
            let h = self.space[scan];
            let kind = CellKind::from_code((h >> 61) & 3);
            let len = (h & 0xFFFF_FFFF) as usize;
            match kind {
                CellKind::Object | CellKind::Array => {
                    for i in 0..len {
                        let v = self.space[scan + 1 + i];
                        self.space[scan + 1 + i] = self.forward_minor(v);
                    }
                }
                CellKind::Closure => {
                    // Slot 0 is the function id (scalar); slot 1 the receiver.
                    let v = self.space[scan + 2];
                    self.space[scan + 2] = self.forward_minor(v);
                }
            }
            scan += len + 1;
        }
        let promoted = self.top - promote_start;
        self.nursery_top = 1;
        self.stats.copied_slots += promoted;
        self.stats.promoted_slots += promoted;
        GcInfo {
            kind: GcKind::Minor,
            live_slots: self.mature_used(),
            copied_slots: promoted,
            capacity_slots: self.space.len(),
        }
    }

    /// Forwards a word during a minor collection: only nursery references
    /// move (promotion); mature references and scalars pass through.
    fn forward_minor(&mut self, v: Word) -> Word {
        if !is_ref(v) || v == NULL {
            return v;
        }
        let old = ref_index(v);
        if old >= self.nursery_end {
            return v;
        }
        let h = self.space[old];
        if h & FORWARD_BIT != 0 {
            return make_ref((h & !FORWARD_BIT) as usize);
        }
        let len = (h & 0xFFFF_FFFF) as usize;
        let at = self.top;
        debug_assert!(at + len < self.space.len(), "mature space overflow during promotion");
        self.space[at] = h;
        for i in 0..len {
            self.space[at + 1 + i] = self.space[old + 1 + i];
        }
        self.top += len + 1;
        self.space[old] = FORWARD_BIT | at as u64;
        make_ref(at)
    }

    /// Major (full-heap Cheney) collection: copies everything reachable
    /// from `roots` into the other semispace — nursery survivors are
    /// promoted in the same sweep — and rewrites the roots in place.
    pub fn collect_major(&mut self, roots: &mut [&mut [Word]]) -> GcInfo {
        self.stats.collections += 1;
        self.stats.major_collections += 1;
        // Worst case everything survives into the mature region of the
        // to-space; grow first if it cannot hold that.
        let live_bound = self.mature_used() + self.nursery_used();
        if self.nursery_end + live_bound > self.space.len() {
            self.grow(live_bound);
        }
        std::mem::swap(&mut self.space, &mut self.alt);
        // `alt` is now the from-space; `space` is the to-space. The nursery
        // region of the to-space stays empty.
        self.top = self.nursery_end;
        self.nursery_top = 1;
        self.remset.clear();
        for root_slice in roots.iter_mut() {
            for slot in root_slice.iter_mut() {
                *slot = self.forward(*slot);
            }
        }
        // Scan.
        let mut scan = self.nursery_end;
        while scan < self.top {
            let h = self.space[scan];
            let kind = CellKind::from_code((h >> 61) & 3);
            let len = (h & 0xFFFF_FFFF) as usize;
            match kind {
                CellKind::Object | CellKind::Array => {
                    for i in 0..len {
                        let v = self.space[scan + 1 + i];
                        self.space[scan + 1 + i] = self.forward(v);
                    }
                }
                CellKind::Closure => {
                    // Slot 0 is the function id (scalar); slot 1 the receiver.
                    let v = self.space[scan + 2];
                    self.space[scan + 2] = self.forward(v);
                }
            }
            scan += len + 1;
        }
        let copied = self.top - self.nursery_end;
        self.stats.copied_slots += copied;
        GcInfo {
            kind: GcKind::Major,
            live_slots: copied,
            copied_slots: copied,
            capacity_slots: self.space.len(),
        }
    }

    fn forward(&mut self, v: Word) -> Word {
        if !is_ref(v) || v == NULL {
            return v;
        }
        let old = ref_index(v);
        let h = self.alt[old];
        if h & FORWARD_BIT != 0 {
            return make_ref((h & !FORWARD_BIT) as usize);
        }
        let len = (h & 0xFFFF_FFFF) as usize;
        let at = self.top;
        debug_assert!(at + len < self.space.len(), "to-space overflow");
        self.space[at] = h;
        for i in 0..len {
            self.space[at + 1 + i] = self.alt[old + 1 + i];
        }
        self.top += len + 1;
        self.alt[old] = FORWARD_BIT | at as u64;
        make_ref(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for v in [0i64, 1, -1, i32::MAX as i64, i32::MIN as i64, 123456789] {
            assert_eq!(as_scalar(scalar(v)), v);
            assert!(!is_ref(scalar(v)));
        }
    }

    #[test]
    fn scalar_boundaries_roundtrip_exactly() {
        for v in [SCALAR_MAX, SCALAR_MIN, SCALAR_MAX - 1, SCALAR_MIN + 1] {
            assert!(scalar_fits(v));
            assert_eq!(as_scalar(scalar(v)), v);
        }
        assert!(!scalar_fits(SCALAR_MAX + 1));
        assert!(!scalar_fits(SCALAR_MIN - 1));
        assert!(!scalar_fits(i64::MAX));
        assert!(!scalar_fits(i64::MIN));
    }

    #[test]
    fn scalar_wrapping_semantics_are_sign_extended_low_63_bits() {
        // The documented law: wrap-at-63-bits, two's complement.
        assert_eq!(as_scalar(scalar_wrapping(i64::MAX)), -1);
        assert_eq!(as_scalar(scalar_wrapping(i64::MIN)), 0);
        assert_eq!(as_scalar(scalar_wrapping(SCALAR_MAX + 1)), SCALAR_MIN);
        assert_eq!(as_scalar(scalar_wrapping(SCALAR_MIN - 1)), SCALAR_MAX);
        for v in [0i64, 7, -7, SCALAR_MAX, SCALAR_MIN] {
            assert_eq!(as_scalar(scalar_wrapping(v)), v, "in-range values are untouched");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "63-bit payload range")]
    fn scalar_out_of_range_panics_in_debug() {
        let _ = scalar(i64::MAX);
    }

    #[test]
    fn ref_roundtrip() {
        for i in [1usize, 2, 1000, 1 << 30] {
            assert_eq!(ref_index(make_ref(i)), i);
            assert!(is_ref(make_ref(i)));
        }
    }

    #[test]
    fn cell_kind_decode_is_checked() {
        assert_eq!(CellKind::try_from_code(0), Some(CellKind::Object));
        assert_eq!(CellKind::try_from_code(1), Some(CellKind::Array));
        assert_eq!(CellKind::try_from_code(2), Some(CellKind::Closure));
        assert_eq!(CellKind::try_from_code(3), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "heap corruption")]
    fn corrupted_header_kind_panics_in_debug() {
        let mut h = Heap::new(64);
        let r = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        // Hand-corrupt the header: kind code 3, which no allocation writes.
        let idx = ref_index(r);
        h.space[idx] |= 3 << 61;
        let _ = h.kind(r);
    }

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new(64);
        let r = h.try_alloc(CellKind::Object, 7, 3).expect("fits");
        assert_eq!(h.kind(r), CellKind::Object);
        assert_eq!(h.meta(r), 7);
        assert_eq!(h.len(r), 3);
        h.set(r, 0, from_i32(42));
        h.set(r, 2, from_i32(-1));
        assert_eq!(as_i32(h.get(r, 0)), 42);
        assert_eq!(as_i32(h.get(r, 2)), -1);
        assert_eq!(h.stats.objects, 1);
    }

    #[test]
    fn alloc_until_full_then_collect_frees_garbage() {
        let mut h = Heap::new(64);
        // One live object referencing another.
        let a = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        let b = h.try_alloc(CellKind::Object, 1, 1).expect("fits");
        h.set(a, 0, b);
        h.set(a, 1, from_i32(5));
        h.set(b, 0, from_i32(9));
        // Garbage.
        while h.try_alloc(CellKind::Array, 0, 4).is_ok() {}
        let mut roots = [a];
        h.collect(&mut [&mut roots]);
        let a2 = roots[0];
        assert_eq!(h.len(a2), 2);
        assert_eq!(as_i32(h.get(a2, 1)), 5);
        let b2 = h.get(a2, 0);
        assert!(is_ref(b2));
        assert_eq!(as_i32(h.get(b2, 0)), 9);
        assert_eq!(h.meta(b2), 1);
        // Everything else was garbage: only a (3 slots) + b (2 slots) live.
        assert_eq!(h.used(), 1 + 3 + 2);
        assert_eq!(h.stats.collections, 1);
        assert_eq!(h.stats.major_collections, 1, "a semispace heap only majors");
    }

    #[test]
    fn shared_references_preserved_by_copying() {
        let mut h = Heap::new(64);
        let shared = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(shared, 0, from_i32(77));
        let x = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        let y = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(x, 0, shared);
        h.set(y, 0, shared);
        let mut roots = [x, y];
        h.collect(&mut [&mut roots]);
        let (x2, y2) = (roots[0], roots[1]);
        // The shared object was copied exactly once.
        assert_eq!(h.get(x2, 0), h.get(y2, 0));
        assert_eq!(as_i32(h.get(h.get(x2, 0), 0)), 77);
    }

    #[test]
    fn cycles_survive_collection() {
        let mut h = Heap::new(64);
        let a = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        let b = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(a, 0, b);
        h.set(b, 0, a);
        let mut roots = [a];
        h.collect(&mut [&mut roots]);
        let a2 = roots[0];
        let b2 = h.get(a2, 0);
        assert_eq!(h.get(b2, 0), a2);
    }

    #[test]
    fn closure_cells_trace_receiver_only() {
        let mut h = Heap::new(64);
        let recv = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(recv, 0, from_i32(5));
        let c = h.try_alloc(CellKind::Closure, 0, 2).expect("fits");
        h.set(c, 0, from_i32(12)); // func id — a scalar, must not be traced
        h.set(c, 1, recv);
        let mut roots = [c];
        h.collect(&mut [&mut roots]);
        let c2 = roots[0];
        assert_eq!(as_i32(h.get(c2, 0)), 12);
        let recv2 = h.get(c2, 1);
        assert_eq!(as_i32(h.get(recv2, 0)), 5);
        assert_eq!(h.stats.closures, 1);
    }

    #[test]
    fn null_is_not_forwarded() {
        let mut h = Heap::new(32);
        let a = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(a, 0, NULL);
        let mut roots = [a];
        h.collect(&mut [&mut roots]);
        assert_eq!(h.get(roots[0], 0), NULL);
    }

    #[test]
    fn needs_gc_when_full() {
        let mut h = Heap::new(16);
        let mut last = Ok(NULL);
        for _ in 0..10 {
            last = h.try_alloc(CellKind::Array, 0, 4);
        }
        assert_eq!(last, Err(NeedsGc));
        h.grow(64);
        assert!(h.try_alloc(CellKind::Array, 0, 4).is_ok());
    }

    #[test]
    fn timeline_is_off_by_default_and_records_when_enabled() {
        let mut h = Heap::new(64);
        let a = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        let mut roots = [a];
        while h.try_alloc(CellKind::Array, 0, 4).is_ok() {}
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Major);
        assert_eq!(info.live_slots, 3, "only the rooted object survives");
        assert_eq!(info.copied_slots, info.live_slots, "copied == live on a major");
        assert_eq!(info.capacity_slots, h.capacity());
    }

    #[test]
    fn grow_preserves_contents() {
        let mut h = Heap::new(16);
        let a = h.try_alloc(CellKind::Object, 3, 2).expect("fits");
        h.set(a, 0, from_i32(11));
        h.grow(1024);
        assert_eq!(as_i32(h.get(a, 0)), 11);
        assert_eq!(h.meta(a), 3);
    }

    // ---- generational-specific tests ----

    #[test]
    fn small_allocations_land_in_the_nursery_large_ones_pretenure() {
        let mut h = Heap::with_nursery(256, 16);
        assert!(h.is_generational());
        assert_eq!(h.nursery_capacity(), 16);
        let small = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        assert!(ref_index(small) < 17, "small cell goes to the nursery");
        assert_eq!(h.nursery_used(), 3);
        let large = h.try_alloc(CellKind::Array, 0, 32).expect("fits");
        assert!(ref_index(large) >= 17, "oversized cell is pre-tenured");
        assert_eq!(h.mature_used(), 33);
    }

    #[test]
    fn minor_collection_promotes_survivors_and_resets_the_nursery() {
        let mut h = Heap::with_nursery(256, 16);
        let a = h.try_alloc(CellKind::Object, 4, 2).expect("fits");
        h.set(a, 0, from_i32(9));
        // Fill the rest of the nursery with garbage.
        while h.try_alloc(CellKind::Object, 0, 2).is_ok() {}
        let mature_before = h.mature_used();
        let mut roots = [a];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Minor);
        assert_eq!(info.copied_slots, 3, "only the rooted cell is promoted");
        assert_eq!(h.nursery_used(), 0, "nursery is empty after a minor");
        assert_eq!(h.mature_used(), mature_before + 3);
        let a2 = roots[0];
        assert!(ref_index(a2) >= h.nursery_end, "survivor was promoted");
        assert_eq!(as_i32(h.get(a2, 0)), 9);
        assert_eq!(h.meta(a2), 4);
        assert_eq!(h.stats.minor_collections, 1);
        assert_eq!(h.stats.promoted_slots, 3);
    }

    #[test]
    fn copied_and_live_slots_genuinely_diverge_on_minors() {
        let mut h = Heap::with_nursery(256, 16);
        // Tenured data that stays live across the minor.
        let big = h.try_alloc(CellKind::Array, 0, 30).expect("fits");
        let a = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        let mut roots = [big, a];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Minor);
        assert_eq!(info.copied_slots, 2, "only the nursery survivor is copied");
        assert_eq!(info.live_slots, 31 + 2, "live counts the whole mature occupancy");
        assert_ne!(info.copied_slots, info.live_slots);
    }

    #[test]
    fn write_barrier_keeps_nursery_objects_alive_across_minors() {
        let mut h = Heap::with_nursery(256, 16);
        // A mature (pre-tenured) holder and a nursery cell it points to.
        let holder = h.try_alloc(CellKind::Array, 0, 20).expect("fits");
        let young = h.try_alloc(CellKind::Object, 2, 1).expect("fits");
        h.set(young, 0, from_i32(55));
        h.set_ref(holder, 0, young);
        assert_eq!(h.remset_len(), 1, "barrier remembered the mature slot");
        // Only the holder is a root; `young` is reachable solely through the
        // remembered set.
        let mut roots = [holder];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Minor);
        let young2 = h.get(roots[0], 0);
        assert!(ref_index(young2) >= h.nursery_end, "promoted, not lost");
        assert_eq!(as_i32(h.get(young2, 0)), 55);
        assert_eq!(h.meta(young2), 2);
        assert_eq!(h.remset_len(), 0, "collection drains the remembered set");
    }

    #[test]
    fn barrier_on_nursery_target_or_scalar_is_a_no_op() {
        let mut h = Heap::with_nursery(256, 16);
        let a = h.try_alloc(CellKind::Object, 0, 2).expect("fits (nursery)");
        let b = h.try_alloc(CellKind::Object, 0, 1).expect("fits (nursery)");
        h.set_ref(a, 0, b); // nursery→nursery: no entry needed
        h.set_ref(a, 1, NULL); // null: no entry
        let mature = h.try_alloc(CellKind::Array, 0, 20).expect("fits (mature)");
        h.set_ref(mature, 0, from_i32(7)); // scalar: no entry
        assert_eq!(h.remset_len(), 0);
    }

    #[test]
    fn shared_and_cyclic_structures_survive_minor_then_major() {
        let mut h = Heap::with_nursery(512, 32);
        let shared = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(shared, 0, from_i32(77));
        let x = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        let y = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        h.set(x, 0, shared);
        h.set(y, 0, shared);
        h.set(x, 1, y); // cycle x -> y -> x
        h.set(y, 1, x);
        let mut roots = [x];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Minor);
        let x2 = roots[0];
        let y2 = h.get(x2, 1);
        assert_eq!(h.get(y2, 1), x2, "cycle intact after promotion");
        assert_eq!(h.get(x2, 0), h.get(y2, 0), "sharing intact after promotion");
        // Now force a major and re-check.
        let mut roots = [x2];
        let info = h.collect_major(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Major);
        let x3 = roots[0];
        let y3 = h.get(x3, 1);
        assert_eq!(h.get(y3, 1), x3, "cycle intact after the major");
        assert_eq!(h.get(x3, 0), h.get(y3, 0), "sharing intact after the major");
        assert_eq!(as_i32(h.get(h.get(x3, 0), 0)), 77);
    }

    #[test]
    fn roots_across_multiple_slices_all_rewrite() {
        let mut h = Heap::with_nursery(256, 32);
        let a = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        let b = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        let c = h.try_alloc(CellKind::Object, 0, 1).expect("fits");
        h.set(a, 0, from_i32(1));
        h.set(b, 0, from_i32(2));
        h.set(c, 0, from_i32(3));
        let mut slice1 = [a, NULL];
        let mut slice2 = [b];
        let mut slice3 = [from_i32(99), c];
        h.collect(&mut [&mut slice1, &mut slice2, &mut slice3]);
        assert_eq!(as_i32(h.get(slice1[0], 0)), 1);
        assert_eq!(slice1[1], NULL);
        assert_eq!(as_i32(h.get(slice2[0], 0)), 2);
        assert_eq!(as_i32(slice3[0]), 99, "scalar roots pass through");
        assert_eq!(as_i32(h.get(slice3[1], 0)), 3);
    }

    #[test]
    fn collect_grow_collect_sequences_stay_consistent() {
        let mut h = Heap::with_nursery(64, 8);
        let a = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        h.set(a, 0, from_i32(41));
        let mut roots = [a];
        h.collect(&mut [&mut roots]);
        h.grow(256);
        assert_eq!(as_i32(h.get(roots[0], 0)), 41, "grow preserves promoted data");
        // Allocate past the old capacity, then collect again (both kinds).
        let mut keep = roots[0];
        for _ in 0..20 {
            let n = match h.try_alloc(CellKind::Object, 0, 2) {
                Ok(n) => n,
                Err(NeedsGc) => {
                    let mut r = [keep];
                    h.collect(&mut [&mut r]);
                    keep = r[0];
                    h.try_alloc(CellKind::Object, 0, 2).expect("fits after gc")
                }
            };
            h.set_ref(n, 0, keep);
            keep = n;
        }
        let mut roots = [keep];
        h.collect_major(&mut [&mut roots]);
        // Walk the chain back to `a`.
        let mut cur = roots[0];
        let mut hops = 0;
        while is_ref(h.get(cur, 0)) && h.get(cur, 0) != NULL {
            cur = h.get(cur, 0);
            hops += 1;
            assert!(hops < 64, "chain should terminate");
        }
        assert_eq!(as_i32(h.get(cur, 0)), 41, "the whole chain survived");
    }

    #[test]
    fn nursery_size_one_still_works() {
        // A 1-slot nursery fits only zero-payload cells; everything else
        // pre-tenures. Both paths must stay correct.
        let mut h = Heap::with_nursery(128, 1);
        let empty = h.try_alloc(CellKind::Object, 5, 0).expect("fits the 1-slot nursery");
        assert!(ref_index(empty) < h.nursery_end);
        let obj = h.try_alloc(CellKind::Object, 0, 1).expect("pre-tenures");
        assert!(ref_index(obj) >= h.nursery_end);
        h.set(obj, 0, from_i32(13));
        // The nursery is full (1 slot used): next empty-cell alloc minors.
        assert_eq!(h.try_alloc(CellKind::Object, 0, 0), Err(NeedsGc));
        let mut roots = [empty, obj];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Minor);
        assert_eq!(h.meta(roots[0]), 5, "empty cell promoted with its header");
        assert_eq!(as_i32(h.get(roots[1], 0)), 13);
        assert!(h.try_alloc(CellKind::Object, 0, 0).is_ok(), "nursery drained");
    }

    #[test]
    fn major_runs_when_mature_cannot_absorb_the_nursery() {
        let mut h = Heap::with_nursery(64, 16);
        // Fill the mature space so fewer than 16 slots remain.
        let mut last = NULL;
        while let Ok(r) = h.try_alloc(CellKind::Array, 0, 20) {
            last = r;
        }
        let mature_free = h.capacity() - h.nursery_capacity() - 1 - h.mature_used();
        assert!(mature_free < h.nursery_capacity());
        // Fill the nursery past the remaining mature headroom so a minor
        // could not promote the worst case.
        let mut roots = vec![last];
        while h.nursery_used() <= mature_free {
            let r = h.try_alloc(CellKind::Object, 0, 1).expect("nursery fits");
            h.set(r, 0, from_i32(3));
            roots.push(r);
        }
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Major, "no headroom for promotion forces a major");
        let nursery_root = *roots.last().expect("non-empty");
        assert_eq!(as_i32(h.get(nursery_root, 0)), 3, "nursery survivor rides the major");
        assert!(ref_index(nursery_root) >= h.nursery_end);
        assert_eq!(h.nursery_used(), 0);
    }

    #[test]
    fn semispace_mode_reports_majors_and_equal_copied_live() {
        let mut h = Heap::new(64);
        assert!(!h.is_generational());
        let a = h.try_alloc(CellKind::Object, 0, 2).expect("fits");
        let mut roots = [a];
        let info = h.collect(&mut [&mut roots]);
        assert_eq!(info.kind, GcKind::Major);
        assert_eq!(info.copied_slots, info.live_slots);
        assert_eq!(h.stats.minor_collections, 0);
    }
}
