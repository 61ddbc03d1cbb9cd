//! The unified machine-readable report behind `vglc stats --json`.
//!
//! One JSON object ties together every observability surface of the system:
//! per-phase compile times ([`crate::PhaseTrace`]), the pipeline statistics
//! (E4's code-expansion data), the interpreter's dynamic cost counters
//! (boxed tuples, §4.1 call-site checks, type-environment lookups), and the
//! VM's counters plus, when profiled, the per-opcode histogram and GC event
//! log. `crates/bench` consumes this shape for the paper tables.

use crate::{Compilation, InterpStats, RunOutcome, RuntimeProfile, VmProfile, VmStats};
use vgl_obs::json::Json;

/// Builds the full report for one compiled program.
///
/// `interp` and `vm` are outcomes from the respective engines (either may be
/// omitted); `profile` and `hotness` are the VM profiles of a
/// [`Compilation::run_vm`] with [`crate::Vm::enable_profiling`] and
/// [`crate::Vm::enable_runtime_profiling_precise`] on.
pub fn stats_json(
    c: &Compilation,
    interp: Option<&RunOutcome>,
    vm: Option<&RunOutcome>,
    profile: Option<&VmProfile>,
    hotness: Option<&RuntimeProfile>,
) -> Json {
    let mut root = Json::object();
    root.set("phases", c.trace.to_json());
    root.set("pipeline", pipeline_json(c));
    root.set("bytecode_instrs", Json::from(c.code_size()));
    root.set("fuse", fuse_json(&c.fuse));
    root.set("backend", backend_json(c));
    if let Some(run) = interp {
        let mut o = outcome_json(run);
        if let Some(s) = &run.interp_stats {
            o.set("stats", interp_stats_json(s));
        }
        root.set("interp", o);
    }
    if let Some(run) = vm {
        let mut o = outcome_json(run);
        if let Some(s) = &run.vm_stats {
            o.set("stats", vm_stats_json(s));
        }
        if let Some(p) = profile {
            o.set("profile", p.to_json());
        }
        root.set("vm", o);
    }
    root.set("runtime", runtime_json(c, interp, vm, hotness));
    root
}

/// The unified `runtime` object: one schema for every dynamic-cost counter
/// the E-series scripts read, regardless of engine. The paper's headline
/// comparison — the interpreter boxes tuples and pays §4.1 call-site
/// checks, the VM structurally cannot — reads off the two `tuple_boxes`
/// fields, and the VM's inline-cache counters live under `vm.ic` instead of
/// being flattened into the stats bag.
fn runtime_json(
    c: &Compilation,
    interp: Option<&RunOutcome>,
    vm: Option<&RunOutcome>,
    hotness: Option<&RuntimeProfile>,
) -> Json {
    let mut rt = Json::object();
    if let Some(s) = interp.and_then(|r| r.interp_stats.as_ref()) {
        let mut o = Json::object();
        o.set("steps", Json::from(s.steps));
        o.set("tuple_boxes", Json::from(s.allocs.tuples));
        o.set("callsite_checks", Json::from(s.callsite_checks));
        o.set("callsite_adaptations", Json::from(s.callsite_adaptations));
        o.set("type_substitutions", Json::from(s.type_substitutions));
        o.set("env_lookups", Json::from(s.env_lookups));
        rt.set("interp", o);
    }
    if let Some(s) = vm.and_then(|r| r.vm_stats.as_ref()) {
        let mut o = Json::object();
        o.set("instrs", Json::from(s.instrs));
        o.set("tuple_boxes", Json::from(s.heap.tuple_boxes));
        o.set("calls", Json::from(s.calls));
        o.set("virtual_calls", Json::from(s.virtual_calls));
        o.set("closure_calls", Json::from(s.closure_calls));
        let mut ic = Json::object();
        ic.set("hits", Json::from(s.ic_hits));
        ic.set("misses", Json::from(s.ic_misses));
        ic.set("hit_rate", Json::Num(s.ic_hit_rate()));
        o.set("ic", ic);
        let mut tier = Json::object();
        tier.set("tier_ups", Json::from(s.tier_ups));
        tier.set("deopts", Json::from(s.deopts));
        tier.set("guarded_calls", Json::from(s.guarded_calls));
        tier.set("inlined_calls", Json::from(s.inlined_calls));
        o.set("tier", tier);
        o.set("gc_collections", Json::from(s.heap.collections));
        o.set("gc_minor", Json::from(s.heap.minor_collections));
        o.set("gc_major", Json::from(s.heap.major_collections));
        if let Some(h) = hotness {
            o.set("hotness", h.to_json(&c.program));
        }
        rt.set("vm", o);
    }
    rt
}

fn pipeline_json(c: &Compilation) -> Json {
    let s = &c.stats;
    let mut o = Json::object();

    let mut mono = Json::object();
    mono.set("method_instances", Json::from(s.mono.method_instances));
    mono.set("class_instances", Json::from(s.mono.class_instances));
    mono.set("live_source_methods", Json::from(s.mono.live_source_methods));
    mono.set("live_source_classes", Json::from(s.mono.live_source_classes));
    o.set("mono", mono);

    let mut norm = Json::object();
    norm.set("tuple_exprs_removed", Json::from(s.norm.tuple_exprs_removed));
    norm.set("params_expanded", Json::from(s.norm.params_expanded));
    norm.set("fields_expanded", Json::from(s.norm.fields_expanded));
    norm.set("globals_expanded", Json::from(s.norm.globals_expanded));
    norm.set("multi_return_methods", Json::from(s.norm.multi_return_methods));
    norm.set("wrappers_synthesized", Json::from(s.norm.wrappers_synthesized));
    o.set("normalize", norm);

    let mut opt = Json::object();
    opt.set("consts_folded", Json::from(s.opt.consts_folded));
    opt.set("queries_folded", Json::from(s.opt.queries_folded));
    opt.set("casts_folded", Json::from(s.opt.casts_folded));
    opt.set("branches_folded", Json::from(s.opt.branches_folded));
    opt.set("dead_stmts_removed", Json::from(s.opt.dead_stmts_removed));
    opt.set("devirtualized", Json::from(s.opt.devirtualized));
    opt.set("inlined", Json::from(s.opt.inlined));
    o.set("optimize", opt);

    o.set("size_before", size_json(&s.size_before));
    o.set("size_after_mono", size_json(&s.size_after_mono));
    o.set("size_after", size_json(&s.size_after));
    o.set("expansion_ratio", Json::Num(c.expansion_ratio()));

    let us = |phase: &str| c.trace.duration(phase).as_secs_f64() * 1e6;
    let mut times = Json::object();
    times.set("mono_us", Json::Num(us("mono")));
    times.set("norm_us", Json::Num(us("normalize")));
    times.set("opt_us", Json::Num(us("optimize")));
    times.set("total_us", Json::Num(us("mono") + us("normalize") + us("optimize")));
    o.set("pass_times", times);
    o
}

fn size_json(s: &vgl_ir::ModuleSize) -> Json {
    let mut o = Json::object();
    o.set("methods", Json::from(s.methods));
    o.set("classes", Json::from(s.classes));
    o.set("expr_nodes", Json::from(s.expr_nodes));
    o.set("locals", Json::from(s.locals));
    o
}

fn outcome_json(run: &RunOutcome) -> Json {
    let mut o = Json::object();
    match &run.result {
        Ok(v) => o.set("result", Json::Str(v.clone())),
        Err(e) => o.set("error", Json::Str(e.clone())),
    }
    o.set("output_bytes", Json::from(run.output.len()));
    o
}

fn interp_stats_json(s: &InterpStats) -> Json {
    let mut o = Json::object();
    o.set("steps", Json::from(s.steps));
    o.set("callsite_checks", Json::from(s.callsite_checks));
    o.set("callsite_adaptations", Json::from(s.callsite_adaptations));
    o.set("type_substitutions", Json::from(s.type_substitutions));
    o.set("env_lookups", Json::from(s.env_lookups));
    o.set("env_depth_total", Json::from(s.env_depth_total));
    o.set("max_env_depth", Json::from(s.max_env_depth));
    let mut a = Json::object();
    a.set("tuples", Json::from(s.allocs.tuples));
    a.set("objects", Json::from(s.allocs.objects));
    a.set("arrays", Json::from(s.allocs.arrays));
    a.set("closures", Json::from(s.allocs.closures));
    o.set("allocs", a);
    o
}

/// What the bytecode back-end optimizer did (static rewrite counts).
fn fuse_json(f: &crate::FuseStats) -> Json {
    let mut o = Json::object();
    o.set("instrs_before", Json::from(f.instrs_before));
    o.set("instrs_after", Json::from(f.instrs_after));
    o.set("copies_propagated", Json::from(f.copies_propagated));
    o.set("movs_coalesced", Json::from(f.movs_coalesced));
    o.set("dead_removed", Json::from(f.dead_removed));
    o.set("bin_imm_fused", Json::from(f.bin_imm_fused));
    o.set("cmp_br_fused", Json::from(f.cmp_br_fused));
    o.set("not_br_folded", Json::from(f.not_br_folded));
    o.set("field_ret_fused", Json::from(f.field_ret_fused));
    o.set("inc_local_fused", Json::from(f.inc_local_fused));
    o.set("global_fused", Json::from(f.global_fused));
    o
}

fn cache_json(c: &crate::CacheStats) -> Json {
    let mut o = Json::object();
    o.set("lookups", Json::from(c.lookups));
    o.set("hits", Json::from(c.hits));
    o.set("unique", Json::from(c.unique));
    o.set("hit_rate", Json::Num(c.hit_rate()));
    o
}

/// The parallel/cached back-end report: effective jobs, per-pass instance
/// cache effectiveness, and the worker spans recorded on the trace.
fn backend_json(c: &Compilation) -> Json {
    let b = &c.backend;
    let mut o = Json::object();
    o.set("jobs", Json::from(b.jobs));
    o.set("norm_cache", cache_json(&b.norm_cache));
    o.set("opt_cache", cache_json(&b.opt_cache));
    o.set("workers", c.trace.workers_json());
    o
}

fn vm_stats_json(s: &VmStats) -> Json {
    let mut o = Json::object();
    o.set("instrs", Json::from(s.instrs));
    o.set("calls", Json::from(s.calls));
    o.set("virtual_calls", Json::from(s.virtual_calls));
    o.set("closure_calls", Json::from(s.closure_calls));
    o.set("ic_hits", Json::from(s.ic_hits));
    o.set("ic_misses", Json::from(s.ic_misses));
    o.set("ic_hit_rate", Json::Num(s.ic_hit_rate()));
    o.set("tier_ups", Json::from(s.tier_ups));
    o.set("deopts", Json::from(s.deopts));
    o.set("guarded_calls", Json::from(s.guarded_calls));
    o.set("inlined_calls", Json::from(s.inlined_calls));
    o.set("ret_spills", Json::from(s.ret_spills));
    let mut h = Json::object();
    h.set("objects", Json::from(s.heap.objects));
    h.set("arrays", Json::from(s.heap.arrays));
    h.set("closures", Json::from(s.heap.closures));
    h.set("tuple_boxes", Json::from(s.heap.tuple_boxes));
    h.set("collections", Json::from(s.heap.collections));
    h.set("minor_collections", Json::from(s.heap.minor_collections));
    h.set("major_collections", Json::from(s.heap.major_collections));
    h.set("copied_slots", Json::from(s.heap.copied_slots));
    h.set("promoted_slots", Json::from(s.heap.promoted_slots));
    h.set("allocated_slots", Json::from(s.heap.allocated_slots));
    o.set("heap", h);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    #[test]
    fn report_round_trips_through_the_parser() {
        let c = Compiler::new()
            .compile(
                "def pair<T>(x: T) -> (T, T) { return (x, x); }\n\
                 def main() -> int { var p = pair(21); return p.0 + p.1; }",
            )
            .expect("compiles");
        let i = c.interpret();
        let mut vm = c.vm();
        vm.enable_profiling();
        vm.enable_runtime_profiling_precise();
        let v = c.run_vm(&mut vm);
        let prof = vm.take_profile().expect("profiling enabled");
        let hot = vm.take_runtime_profile().expect("hotness enabled");
        let j = stats_json(&c, Some(&i), Some(&v), Some(&prof), Some(&hot));
        let text = j.render();
        let back = vgl_obs::json::parse(&text).expect("valid json");
        assert_eq!(back.get("vm").and_then(|v| v.get("result")).and_then(Json::as_str), Some("42"));
        assert_eq!(
            back.get("interp").and_then(|v| v.get("result")).and_then(Json::as_str),
            Some("42")
        );
        let phases = back.get("phases").and_then(Json::as_arr).expect("phases array");
        let names: Vec<&str> =
            phases.iter().filter_map(|p| p.get("name").and_then(Json::as_str)).collect();
        assert_eq!(
            names,
            ["lex", "parse", "sema", "mono", "normalize", "optimize", "lower", "fuse"]
        );
        // The interpreter boxes the tuple; the VM structurally cannot.
        let tuples = back
            .get("interp")
            .and_then(|v| v.get("stats"))
            .and_then(|v| v.get("allocs"))
            .and_then(|v| v.get("tuples"))
            .and_then(Json::as_u64);
        assert!(tuples.unwrap_or(0) > 0, "interp should box tuples: {tuples:?}");
        let backend = back.get("backend").expect("backend object");
        assert!(backend.get("jobs").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert!(
            backend.get("opt_cache").and_then(|v| v.get("lookups")).and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
            "optimize should have fingerprinted method instances"
        );
        assert!(backend.get("workers").and_then(Json::as_arr).is_some());
        let opcodes =
            back.get("vm").and_then(|v| v.get("profile")).and_then(|v| v.get("opcodes"));
        let retired: u64 = match opcodes {
            Some(Json::Obj(entries)) => entries.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => 0,
        };
        assert!(retired > 0, "profile should retire instructions");

        // The unified `runtime` object: one schema across both engines,
        // with tuple boxing at the same key on each side.
        let rt = back.get("runtime").expect("runtime object");
        let rt_tuples = |engine: &str| {
            rt.get(engine).and_then(|v| v.get("tuple_boxes")).and_then(Json::as_u64)
        };
        assert!(rt_tuples("interp").unwrap_or(0) > 0, "interp boxes tuples");
        assert_eq!(rt_tuples("vm"), Some(0), "the VM structurally cannot box tuples");
        let ic = rt.get("vm").and_then(|v| v.get("ic")).expect("ic counters");
        assert!(ic.get("hit_rate").and_then(Json::as_f64).is_some());
        let hotness = rt
            .get("vm")
            .and_then(|v| v.get("hotness"))
            .and_then(Json::as_arr)
            .expect("hotness ranking");
        assert!(!hotness.is_empty());
        assert!(hotness[0].get("excl_instrs").and_then(Json::as_u64).is_some());
    }
}
