//! The VM's crash flight recorder: a fixed-capacity ring of the last N
//! runtime events (calls, inline-cache misses, collections, traps), dumped
//! when a run ends in a trap or `System.error`.
//!
//! Recording is opt-in (`--flight-record` / [`crate::Vm::enable_flight_recorder`])
//! and allocation-free after construction: the ring overwrites its oldest
//! entry in place, so a recorder can ride along an arbitrarily long run and
//! still hand back the final moments when something goes wrong. The fuzz
//! oracle attaches the dump to differential failures so a shrunk repro ships
//! with the trace that led into the divergence or trap.

use crate::bytecode::{FuncId, VmProgram};
use crate::vm::VmError;
use vgl_obs::flight::Ring;
use vgl_runtime::heap::GcKind;

/// How a recorded call was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Direct `Call` (or the `call_function` entry itself).
    Static,
    /// `CallVirt` through the vtable / inline cache.
    Virtual,
    /// `CallClos` through a closure cell.
    Closure,
}

impl CallKind {
    fn label(self) -> &'static str {
        match self {
            CallKind::Static => "call",
            CallKind::Virtual => "callvirt",
            CallKind::Closure => "callclos",
        }
    }
}

/// What happened at one recorded moment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightKind {
    /// A function was entered.
    Call {
        /// Dispatch mechanism.
        kind: CallKind,
        /// The callee.
        func: FuncId,
    },
    /// A `CallVirt` inline cache missed and was refilled.
    IcMiss {
        /// The dense call-site index.
        site: u32,
        /// The receiver class that missed.
        class: u32,
        /// The callee the vtable resolved to.
        func: FuncId,
    },
    /// A garbage collection ran.
    Gc {
        /// Minor (nursery) or major (full-heap) collection.
        kind: GcKind,
        /// Slots surviving the collection.
        live_slots: usize,
        /// Heap capacity at collection time.
        capacity_slots: usize,
    },
    /// A function crossed its hotness threshold and tiered up: each of its
    /// monomorphic, stable `CallVirt` sites now speculates on its receiver
    /// class, in every frame of the function, running ones included.
    TierUp {
        /// The function that tiered up.
        func: FuncId,
    },
    /// A speculated site saw a receiver of another class: the site was
    /// marked megamorphic and the call went on as a plain virtual call.
    Deopt {
        /// The guarded call site.
        site: u32,
        /// The receiver class that broke the guard (`u32::MAX` for null).
        class: u32,
        /// The function the site belongs to.
        func: FuncId,
    },
    /// Execution ended abnormally (language trap, `System.error`, fuel, or
    /// stack overflow).
    Trap {
        /// Why execution stopped.
        error: VmError,
        /// The function on top of the stack when it stopped.
        func: FuncId,
        /// Its program counter (the instruction *after* the faulting one).
        pc: usize,
    },
}

/// One entry in the flight ring: an event plus the retired-instruction
/// clock it happened at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Instructions retired when the event was recorded.
    pub at_instr: u64,
    /// The event itself.
    pub kind: FlightKind,
}

/// The recorder: a [`Ring`] of [`FlightEvent`]s plus rendering.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Ring<FlightEvent>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { ring: Ring::new(capacity) }
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, at_instr: u64, kind: FlightKind) {
        self.ring.push(FlightEvent { at_instr, kind });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.ring.total()
    }

    /// Events lost to the ring's fixed capacity.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    fn func_name(program: &VmProgram, func: FuncId) -> &str {
        program
            .funcs
            .get(func as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// Renders the retained events oldest-first as a human-readable dump,
    /// with a header stating how much of the run the ring still covers.
    pub fn dump(&self, program: &VmProgram) -> String {
        let mut out = format!(
            "--- flight recorder: last {} of {} events ({} dropped) ---\n",
            self.len(),
            self.total(),
            self.dropped()
        );
        for e in self.events() {
            out.push_str(&format!("[instr {:>8}] ", e.at_instr));
            match e.kind {
                FlightKind::Call { kind, func } => {
                    out.push_str(&format!(
                        "{:<8} {}\n",
                        kind.label(),
                        FlightRecorder::func_name(program, func)
                    ));
                }
                FlightKind::IcMiss { site, class, func } => {
                    out.push_str(&format!(
                        "ic-miss  site {site} class {class} -> {}\n",
                        FlightRecorder::func_name(program, func)
                    ));
                }
                FlightKind::Gc { kind, live_slots, capacity_slots } => {
                    out.push_str(&format!(
                        "gc-{}: live {live_slots}/{capacity_slots} slots\n",
                        kind.label()
                    ));
                }
                FlightKind::TierUp { func } => {
                    out.push_str(&format!(
                        "tier-up  {}\n",
                        FlightRecorder::func_name(program, func)
                    ));
                }
                FlightKind::Deopt { site, class, func } => {
                    out.push_str(&format!(
                        "deopt    site {site} class {class} in {}\n",
                        FlightRecorder::func_name(program, func)
                    ));
                }
                FlightKind::Trap { error, func, pc } => {
                    out.push_str(&format!(
                        "trap     {error} in {} @ pc {pc}\n",
                        FlightRecorder::func_name(program, func)
                    ));
                }
            }
        }
        out
    }
}
