//! Virgil source generators for the experiment suite (DESIGN.md E1–E13).

use std::fmt::Write as _;

/// E1: a tuple-heavy workload — tuples as arguments, returns, fields, and
/// array elements, iterated `n` times.
pub fn tuple_heavy(n: usize) -> String {
    format!(
        r#"
def swap(p: (int, int)) -> (int, int) {{ return (p.1, p.0); }}
def addp(a: (int, int), b: (int, int)) -> (int, int) {{
    return (a.0 + b.0, a.1 + b.1);
}}
class Pt {{ var pos: (int, int); new(pos) {{ }} }}
def main() -> int {{
    var t = (1, 2);
    var p = Pt.new((0, 0));
    var arr = Array<(int, int)>.new(8);
    for (i = 0; i < {n}; i = i + 1) {{
        t = swap(t);
        t = addp(t, (1, 1));
        p.pos = addp(p.pos, t);
        arr[i & 7] = t;
        t = arr[(i + 3) & 7];
    }}
    return t.0 + t.1 + p.pos.0;
}}
"#
    )
}

/// E2: a polymorphic workload — generic list construction, mapping, and
/// folding over several instantiations.
pub fn polymorphic(n: usize) -> String {
    format!(
        r#"
class List<T> {{ def head: T; def tail: List<T>; new(head, tail) {{ }} }}
def build<T>(n: int, v: T) -> List<T> {{
    var l: List<T>;
    for (i = 0; i < n; i = i + 1) l = List.new(v, l);
    return l;
}}
def count<T>(l: List<T>, p: T -> bool) -> int {{
    var c = 0;
    for (x = l; x != null; x = x.tail) if (p(x.head)) c = c + 1;
    return c;
}}
def posi(x: int) -> bool {{ return x > 0; }}
def idb(x: bool) -> bool {{ return x; }}
def bigp(x: (int, int)) -> bool {{ return x.0 + x.1 > 0; }}
def main() -> int {{
    var total = 0;
    for (round = 0; round < {n}; round = round + 1) {{
        total = total + count(build(50, 1), posi);
        total = total + count(build(50, true), idb);
        total = total + count(build(50, (1, 2)), bigp);
    }}
    return total;
}}
"#
    )
}

/// E3: the §3.3 ad-hoc-polymorphism dispatch chain with `k` cases, invoked
/// `n` times per instantiated type.
pub fn dispatch_chain(n: usize) -> String {
    format!(
        r#"
var sink = 0;
def h_int(a: int) {{ sink = sink + a; }}
def h_bool(a: bool) {{ if (a) sink = sink + 1; }}
def h_byte(a: byte) {{ sink = sink + int.!(a); }}
def h_pair(a: (int, int)) {{ sink = sink + a.0 + a.1; }}
def isa<F, T>(x: T) -> bool {{ return F.?<T>(x); }}
def asa<F, T>(x: T) -> F {{ return F.!<T>(x); }}
def dispatch<T>(a: T) {{
    if (int.?(a)) h_int(int.!(a));
    if (bool.?(a)) h_bool(bool.!(a));
    if (byte.?(a)) h_byte(byte.!(a));
    if (isa<(int, int), T>(a)) h_pair(asa<(int, int), T>(a));
}}
def main() -> int {{
    for (i = 0; i < {n}; i = i + 1) {{
        dispatch(i);
        dispatch(i % 2 == 0);
        dispatch('x');
        dispatch((i, 1));
    }}
    return sink;
}}
"#
    )
}

/// E4: a generic library instantiated at `k` distinct type arguments (tuple
/// widths give distinct types); measures code expansion, not runtime.
pub fn instantiations(k: usize) -> String {
    let mut src = String::from(
        r#"
class Box<T> {
    def val: T;
    new(val) { }
    def get() -> T { return val; }
    def put(x: T) -> Box<T> { return Box.new(x); }
}
def roundtrip<T>(x: T) -> T { return Box.new(x).put(x).get(); }
def main() {
"#,
    );
    for i in 0..k {
        let args = (0..=i)
            .map(|j| (i + j).to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(src, "    roundtrip(({args}));");
    }
    src.push_str("}\n");
    src
}

/// E5: tuple-width sweep — a width-`w` tuple passed through a call chain `n`
/// times (flattened scalars vs one boxed record).
pub fn tuple_width(w: usize, n: usize) -> String {
    assert!(w >= 1);
    let tuple_ty = if w == 1 {
        "int".to_string()
    } else {
        let elems = vec!["int"; w].join(", ");
        format!("({elems})")
    };
    let ctor = if w == 1 {
        "1".to_string()
    } else {
        let elems = (0..w).map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        format!("({elems})")
    };
    let bump = if w == 1 {
        "return t + 1;".to_string()
    } else {
        let elems = (0..w)
            .map(|i| format!("t.{i} + 1"))
            .collect::<Vec<_>>()
            .join(", ");
        format!("return ({elems});")
    };
    let took = if w == 1 { "t".to_string() } else { "t.0".to_string() };
    format!(
        r#"
def bump(t: {tuple_ty}) -> {tuple_ty} {{ {bump} }}
def main() -> int {{
    var t: {tuple_ty} = {ctor};
    for (i = 0; i < {n}; i = i + 1) t = bump(t);
    return {took};
}}
"#
    )
}

/// E6: first-class function call sites with mixed calling conventions, the
/// §4.1 ambiguity (scalar implementation vs tuple implementation behind the
/// same function type).
pub fn callsite_checks(n: usize) -> String {
    format!(
        r#"
def fs(a: int, b: int) -> int {{ return a + b; }}
def ft(a: (int, int)) -> int {{ return a.0 + a.1; }}
def pick(z: bool) -> ((int, int) -> int) {{ return z ? fs : ft; }}
def main() -> int {{
    var s = 0;
    var t = (1, 2);
    for (i = 0; i < {n}; i = i + 1) {{
        var f = pick(i % 2 == 0);
        s = s + f(i, 1);
        s = s + f(t);
    }}
    return s;
}}
"#
    )
}

/// A mixed "application" workload: virtual dispatch + generics + tuples +
/// first-class functions, for overall engine comparison.
pub fn mixed_app(n: usize) -> String {
    format!(
        r#"
class Shape {{ def area() -> int; }}
class Rect extends Shape {{
    var wh: (int, int);
    new(wh) {{ }}
    def area() -> int {{ return wh.0 * wh.1; }}
}}
class Circle extends Shape {{
    def r: int;
    new(r) {{ }}
    def area() -> int {{ return 3 * r * r; }}
}}
def sum<T>(xs: Array<T>, f: T -> int) -> int {{
    var s = 0;
    for (i = 0; i < xs.length; i = i + 1) s = s + f(xs[i]);
    return s;
}}
def getArea(s: Shape) -> int {{ return s.area(); }}
def main() -> int {{
    var shapes: Array<Shape> = [Rect.new((3, 4)), Circle.new(2), Rect.new((5, 6))];
    var total = 0;
    for (i = 0; i < {n}; i = i + 1) {{
        total = total + sum(shapes, getArea);
    }}
    return total;
}}
"#
    )
}

/// E9 (cache-friendly): a generic worker whose body never mentions its type
/// parameter, instantiated at `k` distinct phantom classes. Monomorphization
/// produces `k` method instances whose post-mono bodies are identical, so
/// the per-instance pass cache collapses them to one unit of normalize +
/// optimize work — the best case for the back-end instance cache.
pub fn instance_fanout_dup(k: usize) -> String {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "class C{i} {{}}");
    }
    src.push_str(
        "def work<T>(n: int) -> int {\n\
         \tvar s = 0;\n\
         \tvar t = (0, 1, 2, 3);\n\
         \tfor (i = 0; i < n; i = i + 1) {\n\
         \t\tt = (t.3 + 1, t.0 + 2, t.1 + 3, t.2 + i);\n\
         \t\ts = s + t.0 * 3 + t.1 * 5 + t.2 * 7 + t.3;\n\
         \t\tif (s > 1000000) s = s - 999983;\n\
         \t\tvar a = i + 1; var b = a * 2; var c = b - a; var d = c * c;\n\
         \t\ts = s + d % 97 + (a + b) % 89 + (c + d) % 83;\n\
         \t}\n\
         \treturn s;\n\
         }\n\
         def main() -> int {\n\
         \tvar total = 0;\n",
    );
    for i in 0..k {
        let _ = writeln!(src, "\ttotal = total + work<C{i}>(8);");
    }
    src.push_str("\treturn total % 1000;\n}\n");
    src
}

/// E9 (cache-hostile): the same shape, but the worker takes a value of its
/// type parameter, so every instance's post-mono signature differs (each
/// mentions its own class type) and the instance cache cannot deduplicate —
/// the honest lower bound for the cache and the pure-parallelism case.
pub fn instance_fanout_distinct(k: usize) -> String {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "class C{i} {{ var tag: int; new(tag) {{ }} }}");
    }
    src.push_str(
        "def work<T>(x: T, n: int) -> int {\n\
         \tvar s = 0;\n\
         \tvar t = (0, 1, 2, 3);\n\
         \tfor (i = 0; i < n; i = i + 1) {\n\
         \t\tt = (t.3 + 1, t.0 + 2, t.1 + 3, t.2 + i);\n\
         \t\ts = s + t.0 * 3 + t.1 * 5 + t.2 * 7 + t.3;\n\
         \t\tif (s > 1000000) s = s - 999983;\n\
         \t\tvar a = i + 1; var b = a * 2; var c = b - a; var d = c * c;\n\
         \t\ts = s + d % 97 + (a + b) % 89 + (c + d) % 83;\n\
         \t}\n\
         \treturn s;\n\
         }\n\
         def main() -> int {\n\
         \tvar total = 0;\n",
    );
    for i in 0..k {
        let _ = writeln!(src, "\ttotal = total + work(C{i}.new({i}), 8);");
    }
    src.push_str("\treturn total % 1000;\n}\n");
    src
}

/// E11: a polymorphic-then-monomorphic dispatch workload for the tiered
/// back end. One walker function's virtual-call site first sees three
/// receiver classes (a short mixed chain, few enough misses to stay below
/// the speculation cap), then settles on a single class for `n` hot
/// iterations over a 64-node chain. Static fusion cannot speculate the
/// site; the tiered VM runs the same fused walker, and once the walker is
/// hot its tier-up reads the inline cache and inlines the one-instruction
/// `Inc.apply` behind a receiver guard — the warmup-knee-then-win curve
/// E11 plots.
pub fn polymorphic_then_monomorphic(n: usize) -> String {
    format!(
        r#"
class Op {{
    def apply(x: int) -> int {{ return x; }}
}}
class Inc extends Op {{
    def apply(x: int) -> int {{ return x + 1; }}
}}
class Dbl extends Op {{
    def apply(x: int) -> int {{ return x + x; }}
}}
class Mask extends Op {{
    def apply(x: int) -> int {{ return x % 8191; }}
}}
class Node {{
    var op: Op;
    var next: Node;
    new(op, next) {{ }}
}}
def walk(chain: Node, x0: int) -> int {{
    var x = x0;
    for (n = chain; n != null; n = n.next) x = n.op.apply(x);
    return x;
}}
def main() -> int {{
    var none: Node;
    // Polymorphic phase: two walks of a mixed 3-class chain (6 cache
    // misses — below the speculation cap, so the site can still be
    // speculated once it settles).
    var mixed = Node.new(Inc.new(), Node.new(Dbl.new(), Node.new(Mask.new(), none)));
    var acc = 0;
    for (i = 0; i < 2; i = i + 1) acc = (acc + walk(mixed, i)) % 8191;
    // Monomorphic phase: the same site sees only Inc from here on.
    var mono: Node;
    for (k = 0; k < 64; k = k + 1) mono = Node.new(Inc.new(), mono);
    for (i = 0; i < {n}; i = i + 1) acc = (acc + walk(mono, i)) % 8191;
    return acc;
}}
"#
    )
}

/// E12 (churn): a long-running "server" loop where every request allocates
/// a short-lived request/response pair that dies before the next iteration.
/// Nearly everything dies in the nursery, so the generational collector's
/// minor pauses touch almost nothing while the semispace collector still
/// copies whatever happens to be in flight.
pub fn server_churn(requests: usize) -> String {
    format!(
        r#"
class Request {{ var id: int; var payload: Array<int>; new(id, payload) {{ }} }}
class Response {{ var id: int; var status: int; var body: Array<int>; new(id, status, body) {{ }} }}
def handle(r: Request) -> Response {{
    var body = Array<int>.new(4);
    for (i = 0; i < body.length; i = i + 1) {{
        body[i] = r.payload[i % r.payload.length] * 3 + r.id;
    }}
    return Response.new(r.id, 200, body);
}}
def main() -> int {{
    var check = 0;
    for (req = 0; req < {requests}; req = req + 1) {{
        var payload = Array<int>.new(6);
        for (i = 0; i < payload.length; i = i + 1) payload[i] = req + i;
        var resp = handle(Request.new(req, payload));
        check = (check + resp.body[req & 3] + resp.status) % 1000000;
    }}
    return check;
}}
"#
    )
}

/// E12 (cache): request churn against a fixed-size lookup cache with
/// eviction. Hits touch only long-lived entries; misses evict a slot and
/// allocate a replacement entry that survives into the old generation — a
/// moderate, steady promotion rate on top of the nursery churn.
pub fn server_cache(requests: usize) -> String {
    format!(
        r#"
class Entry {{
    var key: int;
    var val: Array<int>;
    var hits: int;
    new(key, val) {{ hits = 0; }}
}}
class Request {{ var id: int; var payload: Array<int>; new(id, payload) {{ }} }}
class Response {{ var id: int; var status: int; var body: Array<int>; new(id, status, body) {{ }} }}
def handle(r: Request, cache: Array<Entry>) -> Response {{
    var slot = r.id % cache.length;
    var e = cache[slot];
    if (e == null || e.key != r.id) {{
        // Miss: evict whatever held the slot and promote a fresh entry.
        var val = Array<int>.new(8);
        for (i = 0; i < val.length; i = i + 1) {{
            val[i] = r.payload[i % r.payload.length] * 2 + i;
        }}
        e = Entry.new(r.id, val);
        cache[slot] = e;
    }}
    e.hits = e.hits + 1;
    var body = Array<int>.new(4);
    for (i = 0; i < body.length; i = i + 1) body[i] = e.val[i] + r.id;
    return Response.new(r.id, 200, body);
}}
def main() -> int {{
    var cache = Array<Entry>.new(64);
    var check = 0;
    for (req = 0; req < {requests}; req = req + 1) {{
        var payload = Array<int>.new(6);
        for (i = 0; i < payload.length; i = i + 1) payload[i] = req + i;
        // 68 live keys over 64 slots: mostly hits, a steady trickle of
        // evictions keeping the promotion path honest.
        var resp = handle(Request.new(req % 68, payload), cache);
        check = (check + resp.body[req & 3] + resp.status) % 1000000;
    }}
    return check;
}}
"#
    )
}

/// E12 (steady state): the cache workload on top of a large long-lived
/// store allocated once at startup. The semispace collector re-copies the
/// whole store on every collection; the generational collector promotes it
/// once and then pays only for nursery survivors — the configuration the
/// E12 pause-p99 gate measures.
pub fn server_steady(requests: usize) -> String {
    format!(
        r#"
class Entry {{
    var key: int;
    var val: Array<int>;
    var hits: int;
    new(key, val) {{ hits = 0; }}
}}
class Request {{ var id: int; var payload: Array<int>; new(id, payload) {{ }} }}
class Response {{ var id: int; var status: int; var body: Array<int>; new(id, status, body) {{ }} }}
def handle(r: Request, cache: Array<Entry>) -> Response {{
    var slot = r.id % cache.length;
    var e = cache[slot];
    if (e == null || e.key != r.id) {{
        var val = Array<int>.new(8);
        for (i = 0; i < val.length; i = i + 1) {{
            val[i] = r.payload[i % r.payload.length] * 2 + i;
        }}
        e = Entry.new(r.id, val);
        cache[slot] = e;
    }}
    e.hits = e.hits + 1;
    var body = Array<int>.new(4);
    for (i = 0; i < body.length; i = i + 1) body[i] = e.val[i] + r.id;
    return Response.new(r.id, 200, body);
}}
def main() -> int {{
    // The steady-state heap: a startup-time store the server keeps alive
    // for its whole run (think loaded config + session tables).
    var store = Array<Array<int>>.new(64);
    for (i = 0; i < store.length; i = i + 1) {{
        var chunk = Array<int>.new(64);
        for (j = 0; j < chunk.length; j = j + 1) chunk[j] = i * 64 + j;
        store[i] = chunk;
    }}
    var cache = Array<Entry>.new(64);
    var check = 0;
    for (req = 0; req < {requests}; req = req + 1) {{
        var payload = Array<int>.new(6);
        for (i = 0; i < payload.length; i = i + 1) {{
            payload[i] = store[req % store.length][i] + req;
        }}
        // 64 keys over 64 slots: the cache warms up once and then serves
        // hits, so the long-lived set is genuinely steady (eviction churn
        // is server_cache's job).
        var resp = handle(Request.new(req % 64, payload), cache);
        check = (check + resp.body[req & 3] + resp.status) % 1000000;
    }}
    return check + store[63][63];
}}
"#
    )
}

/// E7: a larger synthetic program (k classes with methods + a generic
/// library) for measuring compile throughput (§5: "compiles very fast").
pub fn big_program(k: usize) -> String {
    let mut src = class_battery(k);
    src.push_str("def main() -> int {\n    var l: List<int>;\n");
    for i in 0..k {
        let _ = writeln!(src, "    var c{i} = C{i}.new({i}, \"x\");");
        let _ = writeln!(src, "    l = List.new(c{i}.m0({i}), l);");
    }
    src.push_str("    return fold(l, plus, 0);\n}\n");
    src
}

/// The generic preamble plus `k` distinct classes — the shared battery
/// behind [`big_program`] (code-expansion rows) and [`serve_edit`]
/// (edit/recompile cycles): every class contributes tuple fields, generic
/// list participation, and three methods for the back half to chew on.
fn class_battery(k: usize) -> String {
    let mut src = String::from(
        "class List<T> { def head: T; def tail: List<T>; new(head, tail) { } }\n\
         def fold<A, B>(l: List<A>, f: (B, A) -> B, init: B) -> B {\n\
             var acc = init;\n\
             for (x = l; x != null; x = x.tail) acc = f(acc, x.head);\n\
             return acc;\n\
         }\n\
         def plus(a: int, b: int) -> int { return a + b; }\n",
    );
    for i in 0..k {
        let _ = writeln!(src, "class C{i} {{");
        let _ = writeln!(src, "    var f0: int;");
        let _ = writeln!(src, "    var f1: (int, bool);");
        let _ = writeln!(src, "    def g: string;");
        let _ = writeln!(src, "    new(f0, g) {{ f1 = (f0, f0 > 0); }}");
        let _ = writeln!(src, "    def m0(x: int) -> int {{ return f0 + x * {i}; }}");
        let _ = writeln!(src, "    def m1(p: (int, int)) -> (int, int) {{ return (p.1 + f0, p.0); }}");
        let _ = writeln!(src, "    def m2(f: int -> int) -> int {{ return f(f0); }}");
        let _ = writeln!(src, "}}");
    }
    src
}

/// The E13 edit model: a small `class_battery` (generics,
/// tuples, virtual dispatch — the paper's feature mix) plus `workers`
/// long straight-line functions whose bodies are optimizer and
/// superinstruction-fuser fodder, plus one "hot" function whose body
/// carries the edit stamp. Every distinct `edit` yields a distinct source
/// (so the daemon's whole-artifact cache can never short-circuit the
/// measurement) whose method set is identical except for `hot` and
/// `main` — exactly the shape of an editor save: many unchanged
/// fingerprints, two changed ones. The back half (optimize → lower →
/// fuse) of the unchanged functions is precisely the work the function
/// store lets a warm compile skip; the front end, mono and normalize run
/// either way. The result depends on `edit`, so output
/// equality between a cold one-shot compile and a served warm compile is
/// a real check.
pub fn serve_edit(workers: usize, edit: u64) -> String {
    const STMTS: usize = 1500;
    let mut src = class_battery(6);
    src.push_str(
        "class Gauge { def get(x: int) -> int { return x; } }\n\
         class Wide extends Gauge { def get(x: int) -> int { return x + 1; } }\n",
    );
    for f in 0..workers {
        let _ = writeln!(src, "def work{f}(x0: int) -> int {{");
        let _ = writeln!(src, "    var b: Gauge = Wide.new();");
        let _ = writeln!(src, "    var acc = x0;");
        for s in 0..STMTS {
            let k = (f * 31 + s * 7) % 97 + 2;
            match s % 5 {
                0 => {
                    let _ = writeln!(src, "    var t{s} = (acc + {k}, acc * 2); acc = t{s}.0 + t{s}.1;");
                }
                1 => {
                    let _ = writeln!(src, "    acc = acc + b.get(acc % 64) + {k};");
                }
                2 => {
                    let _ = writeln!(src, "    if (acc > {k}) acc = acc % 8191; else acc = acc + {k};");
                }
                3 => {
                    let _ = writeln!(src, "    var p{s} = ((acc, {k}), acc); acc = p{s}.0.1 + p{s}.1;");
                }
                _ => {
                    let _ = writeln!(src, "    acc = acc ^ (acc / {k} + {k});");
                }
            }
        }
        let _ = writeln!(src, "    return acc;");
        let _ = writeln!(src, "}}");
    }
    let _ = writeln!(
        src,
        "def hot(x: int) -> int {{ return (x * {a} + {b}) % 8191; }}",
        a = edit % 97 + 1,
        b = edit % 8191,
    );
    src.push_str("def main() -> int {\n    var l: List<int>;\n");
    for i in 0..6 {
        let _ = writeln!(src, "    var c{i} = C{i}.new({i}, \"x\");");
        let _ = writeln!(src, "    l = List.new(c{i}.m0({i}), l);");
    }
    src.push_str("    var acc = fold(l, plus, 0);\n");
    for f in 0..workers {
        let _ = writeln!(src, "    acc = (acc + work{f}({f})) % 1000000;");
    }
    let _ = writeln!(src, "    return acc + hot({});", edit % 1000);
    src.push_str("}\n");
    src
}
