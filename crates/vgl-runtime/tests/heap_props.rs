//! Model-based property testing of the semispace collector: a mirror model
//! of cells in plain Rust is maintained alongside the heap; after arbitrary
//! sequences of allocations, pointer writes, root changes, and collections,
//! every live cell must be intact and identical to the model.
//!
//! Op sequences come from the workspace's seeded PRNG ([`vgl_fuzz::Rng`],
//! deterministic, dependency-free); failures print the seed.
//! `VGL_PROP_CASES` overrides the default 64 cases.

use std::collections::HashMap;
use vgl_fuzz::Rng;
use vgl_runtime::heap::{self, CellKind, Heap, Word, NULL};

/// One scripted operation.
#[derive(Clone, Debug)]
enum Op {
    /// Allocate a cell with `n` slots and make it root `r % roots`.
    Alloc { slots: u8, root: u8 },
    /// Write a scalar into slot `s` of root `r`.
    WriteScalar { root: u8, slot: u8, value: i32 },
    /// Write a pointer to root `b`'s cell into slot `s` of root `a`.
    WritePtr { a: u8, b: u8, slot: u8 },
    /// Drop root `r` (set to null).
    DropRoot(u8),
    /// Force a collection.
    Collect,
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.below(5) {
        0 => Op::Alloc { slots: 1 + rng.below(5) as u8, root: rng.next() as u8 },
        1 => Op::WriteScalar {
            root: rng.next() as u8,
            slot: rng.next() as u8,
            value: rng.next() as i32,
        },
        2 => Op::WritePtr { a: rng.next() as u8, b: rng.next() as u8, slot: rng.next() as u8 },
        3 => Op::DropRoot(rng.next() as u8),
        _ => Op::Collect,
    }
}

const NROOTS: usize = 8;

/// Model cell: id plus slot contents (scalar or model-id reference).
#[derive(Clone, Debug, PartialEq)]
enum MSlot {
    Scalar(i64),
    Ref(usize),
    Null,
}

#[derive(Clone, Debug)]
struct MCell {
    slots: Vec<MSlot>,
}

#[test]
fn heap_matches_model() {
    let cases: u64 = std::env::var("VGL_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for case in 0..cases {
        let seed = 0x4EA9_0000 + case;
        let mut rng = Rng::new(seed);
        let nops = 1 + rng.below(59);
        let ops: Vec<Op> = (0..nops).map(|_| gen_op(&mut rng)).collect();
        run_case(seed, ops);
    }
}

fn run_case(seed: u64, ops: Vec<Op>) {
    let mut heap = Heap::new(64); // small: forces frequent collections
    let mut roots: Vec<Word> = vec![NULL; NROOTS];
    // Model: root -> model id, model id -> cell.
    let mut mroots: Vec<Option<usize>> = vec![None; NROOTS];
    let mut mcells: HashMap<usize, MCell> = HashMap::new();
    let mut next_id = 0usize;
    // Each heap cell's slot 0 carries its model id so we can re-associate
    // after the collector moves cells... except we need all slots for the
    // test. Instead track id via a parallel map from root index, and
    // verify reachable structure by walking both in lockstep.

    let collect = |heap: &mut Heap, roots: &mut Vec<Word>| {
        heap.collect(&mut [&mut roots[..]]);
    };

    for op in ops {
        match op {
            Op::Alloc { slots, root } => {
                let r = (root as usize) % NROOTS;
                let n = slots as usize;
                let cell = match heap.try_alloc(CellKind::Object, 0, n) {
                    Ok(c) => c,
                    Err(_) => {
                        collect(&mut heap, &mut roots);
                        match heap.try_alloc(CellKind::Object, 0, n) {
                            Ok(c) => c,
                            Err(_) => {
                                heap.grow(n + 2);
                                heap.try_alloc(CellKind::Object, 0, n).expect("after grow")
                            }
                        }
                    }
                };
                // New cells are zeroed scalars in the heap; mirror that.
                roots[r] = cell;
                let id = next_id;
                next_id += 1;
                mroots[r] = Some(id);
                mcells.insert(id, MCell { slots: vec![MSlot::Scalar(0); n] });
            }
            Op::WriteScalar { root, slot, value } => {
                let r = (root as usize) % NROOTS;
                if roots[r] == NULL {
                    continue;
                }
                let id = mroots[r].expect("model root");
                let n = mcells[&id].slots.len();
                if n == 0 {
                    continue;
                }
                let s = (slot as usize) % n;
                heap.set(roots[r], s, heap::scalar(value as i64));
                mcells.get_mut(&id).expect("cell").slots[s] = MSlot::Scalar(value as i64);
            }
            Op::WritePtr { a, b, slot } => {
                let (ra, rb) = ((a as usize) % NROOTS, (b as usize) % NROOTS);
                if roots[ra] == NULL {
                    continue;
                }
                let ida = mroots[ra].expect("model root");
                let n = mcells[&ida].slots.len();
                if n == 0 {
                    continue;
                }
                let s = (slot as usize) % n;
                if roots[rb] == NULL {
                    heap.set(roots[ra], s, NULL);
                    mcells.get_mut(&ida).expect("cell").slots[s] = MSlot::Null;
                } else {
                    let idb = mroots[rb].expect("model root");
                    heap.set(roots[ra], s, roots[rb]);
                    mcells.get_mut(&ida).expect("cell").slots[s] = MSlot::Ref(idb);
                }
            }
            Op::DropRoot(r) => {
                let r = (r as usize) % NROOTS;
                roots[r] = NULL;
                mroots[r] = None;
            }
            Op::Collect => collect(&mut heap, &mut roots),
        }

        // Verify: walk every root's reachable structure in lockstep with
        // the model (depth-limited; the object graph can be cyclic).
        fn verify(
            heap: &Heap,
            w: Word,
            id: usize,
            mcells: &HashMap<usize, MCell>,
            root_words: &HashMap<usize, Word>,
            depth: usize,
        ) -> Result<(), String> {
            if depth == 0 {
                return Ok(());
            }
            let mc = mcells.get(&id).ok_or("missing model cell")?;
            if heap.len(w) != mc.slots.len() {
                return Err(format!("len mismatch: {} vs {}", heap.len(w), mc.slots.len()));
            }
            for (i, ms) in mc.slots.iter().enumerate() {
                let hv = heap.get(w, i);
                match ms {
                    MSlot::Scalar(v) => {
                        if heap::is_ref(hv) || heap::as_scalar(hv) != *v {
                            return Err(format!("slot {i}: scalar {v} vs {hv:#x}"));
                        }
                    }
                    MSlot::Null => {
                        if hv != NULL {
                            return Err(format!("slot {i}: expected null"));
                        }
                    }
                    MSlot::Ref(rid) => {
                        if !heap::is_ref(hv) || hv == NULL {
                            return Err(format!("slot {i}: expected ref"));
                        }
                        // If the referee is still rooted, its root word
                        // must match (copying preserved sharing).
                        if let Some(&expected) = root_words.get(rid) {
                            if expected != hv {
                                return Err(format!("slot {i}: sharing broken"));
                            }
                        }
                        verify(heap, hv, *rid, mcells, root_words, depth - 1)?;
                    }
                }
            }
            Ok(())
        }
        let root_words: HashMap<usize, Word> = mroots
            .iter()
            .enumerate()
            .filter_map(|(i, id)| id.map(|id| (id, roots[i])))
            .collect();
        for (i, id) in mroots.iter().enumerate() {
            if let Some(id) = id {
                assert!(roots[i] != NULL, "seed {seed}: root {i} unexpectedly null");
                if let Err(e) = verify(&heap, roots[i], *id, &mcells, &root_words, 6) {
                    panic!("seed {seed}: verification failed at root {i}: {e}");
                }
            }
        }
    }
}
