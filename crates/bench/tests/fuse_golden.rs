//! Byte-identity goldens for the bytecode fuser.
//!
//! Each case compiles one program through `vgl::Compiler` (fusion on,
//! tiering off) and pins two things: an FNV-1a digest of the whole fused
//! program's `vgl_vm::disasm`, and every `FuseStats` counter. Both must hold
//! at jobs 1 and 2. The corpus covers the shapes whose fusion cost differs
//! most: the 1500-statement `serve_edit` workers, the many-class
//! `big_program`, duplicate and distinct instance fan-out, and every
//! `examples/v` program.
//!
//! A change to how the fuser computes its result (liveness, copy
//! propagation, dead-code sweep) must leave these goldens untouched. Only a
//! deliberate change to what it emits (lowering, fusion rules, the
//! disassembler) may move them, and then the new values are reviewed and
//! re-pinned.

use vgl_bench::workloads;
use vgl_vm::FuseStats;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `FuseStats` counter, in declaration order.
fn counters(s: &FuseStats) -> [usize; 11] {
    [
        s.copies_propagated,
        s.movs_coalesced,
        s.dead_removed,
        s.bin_imm_fused,
        s.cmp_br_fused,
        s.not_br_folded,
        s.field_ret_fused,
        s.inc_local_fused,
        s.global_fused,
        s.instrs_before,
        s.instrs_after,
    ]
}

/// Compiles `src` at each jobs count and compares the disasm digest and
/// the counters with the golden; describes every mismatch.
fn mismatches(name: &str, src: &str, digest: u64, want: [usize; 11]) -> Vec<String> {
    let mut out = Vec::new();
    for jobs in [1, 2] {
        let c = vgl::Compiler::new()
            .with_jobs(jobs)
            .compile(src)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        let got_digest = fnv1a(vgl_vm::disasm(&c.program).as_bytes());
        let got = counters(&c.fuse);
        if (got_digest, got) != (digest, want) {
            out.push(format!(
                "{name} at jobs={jobs}: fused output moved: digest {got_digest:#018x}, \
                 counters {got:?}"
            ));
        }
    }
    out
}

fn check(name: &str, src: &str, digest: u64, want: [usize; 11]) {
    let bad = mismatches(name, src, digest, want);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

// Counter order: copies_propagated, movs_coalesced, dead_removed,
// bin_imm_fused, cmp_br_fused, not_br_folded, field_ret_fused,
// inc_local_fused, global_fused, instrs_before, instrs_after.

#[test]
fn serve_edit_one_worker() {
    check(
        "serve_edit(1, 12345)",
        &workloads::serve_edit(1, 12345),
        0x2c72_1355_d40c_94f1,
        [4839, 1507, 4539, 3013, 301, 1, 0, 900, 0, 14345, 4979],
    );
}

#[test]
fn serve_edit_three_workers() {
    check(
        "serve_edit(3, 777)",
        &workloads::serve_edit(3, 777),
        0x4a2c_36c9_1ada_3c14,
        [14451, 4507, 13551, 9015, 901, 1, 0, 2700, 0, 42577, 14597],
    );
}

#[test]
fn big_program_200() {
    check(
        "big_program(200)",
        &workloads::big_program(200),
        0xa9a3_4e2f_09a7_e4a2,
        [807, 201, 807, 202, 1, 1, 0, 0, 0, 5832, 4421],
    );
}

#[test]
fn instance_fanout_dup_64() {
    check(
        "instance_fanout_dup(64)",
        &workloads::instance_fanout_dup(64),
        0xfc82_da2f_2cf3_dfb5,
        [143, 79, 136, 15, 2, 0, 0, 1, 0, 5575, 3012],
    );
}

#[test]
fn instance_fanout_distinct_64() {
    check(
        "instance_fanout_distinct(64)",
        &workloads::instance_fanout_distinct(64),
        0x3edb_f9b9_afea_27a7,
        [207, 79, 200, 15, 2, 0, 0, 1, 0, 5959, 3332],
    );
}

#[test]
fn examples() {
    let goldens: [(&str, u64, [usize; 11]); 9] = [
        ("classes.v", 0x1336_660c_33cd_4788, [10, 6, 8, 4, 1, 0, 0, 1, 0, 85, 66]),
        ("closures.v", 0x0deb_a8a2_fbe5_eef8, [11, 1, 10, 1, 0, 0, 1, 0, 0, 53, 40]),
        ("delegates.v", 0x03f2_f759_78b3_85b2, [16, 5, 12, 1, 1, 1, 0, 1, 0, 85, 65]),
        ("dispatch_chain.v", 0x3208_0b2a_1bbb_5d8d, [26, 13, 26, 14, 6, 2, 0, 4, 0, 155, 94]),
        ("gc.v", 0xa83c_31cb_7f59_5fb1, [12, 10, 12, 5, 3, 1, 0, 2, 0, 68, 37]),
        ("generics.v", 0x1a12_2437_a24d_cd01, [13, 2, 12, 0, 0, 0, 1, 0, 0, 57, 40]),
        ("hello.v", 0x559e_5537_b7e2_9075, [1, 0, 1, 0, 0, 0, 0, 0, 0, 7, 6]),
        ("tuples.v", 0x2b1d_8b3f_2d66_a2e7, [9, 7, 9, 6, 3, 0, 0, 2, 0, 72, 47]),
        ("wide_tuples.v", 0x7421_1049_2818_1cda, [55, 4, 37, 9, 1, 0, 0, 1, 0, 134, 83]),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/v");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".v"))
        .collect();
    names.sort();
    let pinned: Vec<&str> = goldens.iter().map(|g| g.0).collect();
    assert_eq!(names, pinned, "every examples/v program has a fused golden");
    let bad: Vec<String> = goldens
        .iter()
        .flat_map(|&(name, digest, want)| {
            mismatches(name, &std::fs::read_to_string(dir.join(name)).expect("read example"), digest, want)
        })
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
