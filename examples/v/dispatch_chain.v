// The §3.3 dispatch chain, class-hierarchy edition: a linked chain of
// operation nodes walked in a hot loop. The `n.op.apply(x)` site exercises
// the VM's monomorphic inline caches, and the counting loops compile to
// fused compare-and-branch / add-immediate superinstructions — see
// `vglc disasm examples/v/dispatch_chain.v` for the before/after view.
class Op {
    def apply(x: int) -> int { return x; }
}
class Inc extends Op {
    def apply(x: int) -> int { return x + 1; }
}
class Dbl extends Op {
    def apply(x: int) -> int { return x + x; }
}
class Mask extends Op {
    def apply(x: int) -> int { return x % 1000; }
}
class Node {
    var op: Op;
    var next: Node;
    new(op, next) { }
}
def run(chain: Node, x0: int) -> int {
    var x = x0;
    for (n = chain; n != null; n = n.next) x = n.op.apply(x);
    return x;
}
// A second walker kept separate from `run` on purpose: its apply site only
// ever sees `Inc`, so once it tiers up the site checks for `Inc` and runs
// `x + 1` in place of the call, in the running frame too — `vglc disasm
// --tiered` shows it as `call_inline` where `run`'s mixed-chain site stays
// a plain virtual call.
def runinc(chain: Node, x0: int) -> int {
    var x = x0;
    for (n = chain; n != null; n = n.next) x = n.op.apply(x);
    return x;
}
def main() -> int {
    var none: Node;
    var chain = Node.new(Dbl.new(), Node.new(Mask.new(), none));
    // A mostly-monomorphic prefix: the apply site sees Inc six times per
    // walk, so its inline cache hits on five of them.
    for (j = 0; j < 6; j = j + 1) chain = Node.new(Inc.new(), chain);
    var mono: Node;
    for (k = 0; k < 8; k = k + 1) mono = Node.new(Inc.new(), mono);
    var acc = 0;
    for (i = 0; i < 64; i = i + 1) acc = (acc + run(chain, i)) % 9973;
    for (i = 0; i < 64; i = i + 1) acc = (acc + runinc(mono, i)) % 9973;
    System.puti(acc);
    System.ln();
    return acc;
}
