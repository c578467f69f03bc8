//! The shared UDF compiler against the interpreter it replaces.
//!
//! A seeded property test generates random UDF bytecode — straight-line
//! code plus forward `Jump`/`JumpIfNot` and early `Ret`, over int, float,
//! bool and vertex properties, globals of each kind, the parameters and
//! the edge weight, with every opcode the compiler accepts — and runs each
//! program compiled and through `Evaluator::call` on two copies of the
//! same state. The two must leave bit-identical properties and globals,
//! enqueue the same vertices in the same order, notify the same priority
//! updates, return the same bits, and panic (or not) identically; the
//! compiled calls of one program share a frame, as a chunk's calls do. A
//! second property splices a random filter in front of a random edge
//! apply and holds the compiled operator to the interpreter's filter call
//! followed by its apply call, per edge. Hand cases pin the corners of `Value::bin` and `PropertyStorage` the
//! compiler must reproduce, and k-core on the three simulators checks that
//! their host-side filter sweeps run compiled.

use std::panic::AssertUnwindSafe;

use ugc_graph::Graph;
use ugc_graphir::types::{BinOp, ReduceOp, Type, UnOp};
use ugc_resilience::ErrorClass;
use ugc_runtime::bytecode::{Instr, Reg, UdfId, UdfProgram, UdfSet};
use ugc_runtime::eval::{BufferedOutput, EdgeCtx, Evaluator, NullMemory};
use ugc_runtime::interp::{contain, ExecError};
use ugc_runtime::properties::{GlobalTable, PropId, PropertyStorage};
use ugc_runtime::udf::{self, Frame};
use ugc_runtime::value::Value;
use ugc_testkit::{check, gen, Config, NoShrink, Prng};

/// Properties of every generated program; `pq` is queue 0's priority.
const PROPS: [(&str, Type); 5] = [
    ("pi", Type::Int),
    ("pf", Type::Float),
    ("pb", Type::Bool),
    ("pv", Type::Vertex),
    ("pq", Type::Int),
];
const PI: PropId = PropId(0);
const PF: PropId = PropId(1);
const PB: PropId = PropId(2);
const PQ: PropId = PropId(4);

const GLOBALS: [(&str, Type); 3] = [("gi", Type::Int), ("gf", Type::Float), ("gb", Type::Bool)];

/// Vertices of the graph every program runs on.
const N: u32 = 6;

/// Two triangles joined by an edge, both directions: intersections and
/// degrees are non-trivial.
fn graph() -> Graph {
    let mut edges = Vec::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)] {
        edges.push((a, b));
        edges.push((b, a));
    }
    Graph::from_edges(N as usize, &edges)
}

/// One program and everything it runs against.
#[derive(Debug, Clone)]
struct Case {
    udf: UdfProgram,
    /// Initial cells, property-major.
    cells: Vec<Vec<Value>>,
    globals: Vec<Value>,
    /// `(args, edge weight)` of each call, in order, on the same state.
    calls: Vec<(Vec<i64>, i64)>,
    really_atomic: bool,
}

/// Everything a run of a [`Case`] can be observed by.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Return bits of each completed call (kind tag, bits).
    returns: Vec<Option<(u8, u64)>>,
    /// The class and message of the panic that ended the run, if any.
    panic: Option<(ErrorClass, String)>,
    cells: Vec<Vec<u64>>,
    globals: Vec<u64>,
    enqueued: Vec<u32>,
    priority_updates: Vec<(usize, u32, i64)>,
}

fn tag(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Bool(b) => (2, b as u64),
    }
}

fn state(case: &Case) -> (PropertyStorage, GlobalTable) {
    let mut props = PropertyStorage::new(N as usize);
    for (&(name, ty), init) in PROPS.iter().zip(&case.cells) {
        let id = props.add(name, ty, Value::zero_of(ty));
        for (v, &x) in init.iter().enumerate() {
            props.write(id, v as u32, x);
        }
    }
    let mut globals = GlobalTable::new();
    for (&(name, ty), &init) in GLOBALS.iter().zip(&case.globals) {
        globals.add(name, ty, init);
    }
    (props, globals)
}

/// Runs `case` compiled (`compiled = true`) or interpreted. The compiled
/// calls share one frame, as an operator's calls over a chunk do, so each
/// call starts from the registers the one before it left.
fn run(case: &Case, compiled: bool) -> Outcome {
    let udfs = UdfSet {
        udfs: vec![case.udf.clone()],
        queue_props: vec![PQ],
    };
    let (props, globals) = state(case);
    let graph = graph();
    let mut ev = Evaluator::new(&udfs, &props, &globals, &graph);
    ev.really_atomic = case.really_atomic;
    let mut out = BufferedOutput::default();
    let (returns, panic) = if compiled {
        let body = udf::compile(&udfs.udfs[0], &udfs.queue_props, &props, &globals)
            .unwrap_or_else(|| panic!("well-typed program not compiled: {:?}", case.udf));
        let mut frame = Frame::new(&ev, &mut out);
        walk(&case.calls, |args, weight| {
            body.run(&mut frame, args, weight)
        })
    } else {
        walk(&case.calls, |args, weight| {
            let vals: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
            let ctx = EdgeCtx { weight };
            ev.call(UdfId(0), &vals, ctx, &mut out, &mut NullMemory)
        })
    };
    Outcome {
        returns,
        panic,
        cells: (0..PROPS.len())
            .map(|p| (0..N).map(|v| props.read_bits(PropId(p), v)).collect())
            .collect(),
        globals: (0..GLOBALS.len()).map(|g| globals.read_bits(g)).collect(),
        enqueued: out.enqueued,
        priority_updates: out.priority_updates,
    }
}

/// `calls` through `call`, in order, up to the first panic: the return
/// bits of each completed call, and the panic's class and message.
#[allow(clippy::type_complexity)]
fn walk(
    calls: &[(Vec<i64>, i64)],
    mut call: impl FnMut(&[i64], i64) -> Option<Value>,
) -> (Vec<Option<(u8, u64)>>, Option<(ErrorClass, String)>) {
    let mut returns = Vec::new();
    for (args, weight) in calls {
        match contain(AssertUnwindSafe(|| Ok::<_, ExecError>(call(args, *weight)))) {
            Ok(ret) => returns.push(ret.map(tag)),
            Err(e) => return (returns, Some((e.class, e.message))),
        }
    }
    (returns, None)
}

/// Runs `case` both ways, requires identical outcomes, returns it.
fn differential(case: &Case) -> Outcome {
    let interpreted = run(case, false);
    let compiled = run(case, true);
    assert_eq!(compiled, interpreted, "program: {:?}", case.udf);
    compiled
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum K {
    I,
    F,
    B,
}

fn kind_of(ty: Type) -> K {
    match ty {
        Type::Float => K::F,
        Type::Bool => K::B,
        _ => K::I,
    }
}

fn int_value(rng: &mut Prng) -> i64 {
    gen::one_of(rng, &[-3, -1, 0, 0, 1, 2, 5, 7, i64::MAX, i64::MIN])
}

fn float_value(rng: &mut Prng) -> f64 {
    gen::one_of(
        rng,
        &[0.0, -0.0, 1.0, -2.5, 0.5, 3.0, f64::NAN, f64::INFINITY],
    )
}

fn value_of_kind(rng: &mut Prng, k: K) -> Value {
    match k {
        K::I => Value::Int(int_value(rng)),
        K::F => Value::Float(float_value(rng)),
        K::B => Value::Bool(rng.gen_bool(0.5)),
    }
}

/// Builds one well-typed program: every register has one kind, every
/// register read under a non-int kind is written on every path to the
/// read, and every property index is a vertex.
struct Gen<'r> {
    rng: &'r mut Prng,
    instrs: Vec<Instr>,
    /// `(register, kind, position of its first write)`.
    regs: Vec<(Reg, K, usize)>,
    /// Registers holding a valid vertex id.
    vertices: Vec<Reg>,
    /// `(position, target)` of every jump.
    jumps: Vec<(usize, usize)>,
    num_regs: usize,
    num_params: usize,
    /// Index of the final `Ret`.
    len: usize,
}

impl Gen<'_> {
    fn at(&self) -> usize {
        self.instrs.len()
    }

    /// Whether a read of `r` here sees a write on every path.
    fn safe(&self, r: Reg, def: usize) -> bool {
        r < self.num_params as Reg
            || !self
                .jumps
                .iter()
                .any(|&(k, t)| k < def && def < t && t <= self.at())
    }

    fn pick(&mut self, ok: impl Fn(K) -> bool) -> Option<(Reg, K)> {
        let cands: Vec<(Reg, K)> = self
            .regs
            .iter()
            .filter(|&&(r, k, def)| ok(k) && self.safe(r, def))
            .map(|&(r, k, _)| (r, k))
            .collect();
        (!cands.is_empty()).then(|| cands[self.rng.gen_range(0..cands.len())])
    }

    fn any(&mut self) -> (Reg, K) {
        self.pick(|_| true).expect("parameters are always readable")
    }

    fn integral(&mut self) -> Reg {
        self.pick(|k| k != K::F).expect("parameters are int").0
    }

    fn vertex(&mut self) -> Reg {
        let vs = self.vertices.clone();
        gen::one_of(self.rng, &vs)
    }

    fn fresh(&mut self, k: K) -> Reg {
        let r = self.num_regs as Reg;
        self.num_regs += 1;
        self.regs.push((r, k, self.at()));
        r
    }

    /// A value register a store into `ty` takes without panicking, or
    /// (rarely) any register.
    fn storable(&mut self, ty: Type) -> Reg {
        if self.rng.gen_bool(0.05) {
            return self.any().0;
        }
        match kind_of(ty) {
            K::F => self.any().0,
            _ => self.integral(),
        }
    }

    fn forward_target(&mut self) -> usize {
        let t = self.rng.gen_range(self.at() + 1..=self.len);
        self.jumps.push((self.at(), t));
        t
    }

    fn step(&mut self) {
        let prop = PropId(self.rng.gen_range(0..PROPS.len()));
        let pty = PROPS[prop.0].1;
        let ins = match self.rng.gen_range(0..20) {
            0 => {
                let k = gen::one_of(self.rng, &[K::I, K::F, K::B]);
                let v = value_of_kind(self.rng, k);
                Instr::Const {
                    dst: self.fresh(k),
                    v,
                }
            }
            1 => {
                let (src, k) = self.any();
                // Re-assign a non-parameter register of the same kind, or
                // define a new one (a vertex copy stays a vertex).
                let dst = match self
                    .pick(|j| j == k)
                    .filter(|&(r, _)| r >= self.num_params as Reg)
                {
                    Some((r, _)) if self.rng.gen_bool(0.5) && !self.vertices.contains(&r) => r,
                    _ => {
                        let r = self.fresh(k);
                        if self.vertices.contains(&src) {
                            self.vertices.push(r);
                        }
                        r
                    }
                };
                Instr::Mov { dst, src }
            }
            2 | 3 => {
                let op = gen::one_of(
                    self.rng,
                    &[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Mod,
                        BinOp::Eq,
                        BinOp::Ne,
                        BinOp::Lt,
                        BinOp::Le,
                        BinOp::Gt,
                        BinOp::Ge,
                        BinOp::And,
                        BinOp::Or,
                    ],
                );
                let (a, ka, b, kb) = if matches!(op, BinOp::And | BinOp::Or) {
                    (self.integral(), K::I, self.integral(), K::I)
                } else {
                    let ((a, ka), (b, kb)) = (self.any(), self.any());
                    (a, ka, b, kb)
                };
                let k = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        if ka == K::F || kb == K::F {
                            K::F
                        } else {
                            K::I
                        }
                    }
                    _ => K::B,
                };
                Instr::Bin {
                    op,
                    dst: self.fresh(k),
                    a,
                    b,
                }
            }
            4 => {
                let op = gen::one_of(
                    self.rng,
                    &[UnOp::Neg, UnOp::Not, UnOp::ToFloat, UnOp::ToInt],
                );
                let (a, ka) = if op == UnOp::Not {
                    (self.integral(), K::I)
                } else {
                    self.any()
                };
                let k = match op {
                    UnOp::Neg if ka == K::F => K::F,
                    UnOp::Neg | UnOp::ToInt => K::I,
                    UnOp::Not => K::B,
                    UnOp::ToFloat => K::F,
                };
                Instr::Un {
                    op,
                    dst: self.fresh(k),
                    a,
                }
            }
            5 => {
                let a = self.any().0;
                Instr::Abs {
                    dst: self.fresh(K::F),
                    a,
                }
            }
            6 | 7 => {
                let idx = self.vertex();
                Instr::LoadProp {
                    dst: self.fresh(kind_of(pty)),
                    prop,
                    idx,
                }
            }
            8 => Instr::StoreProp {
                prop,
                idx: self.vertex(),
                val: self.storable(pty),
            },
            9 => {
                let (idx, expected, new) = (self.vertex(), self.storable(pty), self.storable(pty));
                Instr::Cas {
                    dst: self.fresh(K::B),
                    prop,
                    idx,
                    expected,
                    new,
                    atomic: self.rng.gen_bool(0.5),
                }
            }
            10 => {
                let op = gen::one_of(
                    self.rng,
                    &[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Or],
                );
                let idx = self.vertex();
                let val = if op == ReduceOp::Or {
                    self.integral()
                } else {
                    self.storable(pty)
                };
                Instr::ReduceProp {
                    prop,
                    idx,
                    op,
                    val,
                    atomic: self.rng.gen_bool(0.5),
                    changed: self.rng.gen_bool(0.6).then(|| self.fresh(K::B)),
                }
            }
            11 => {
                let id = self.rng.gen_range(0..GLOBALS.len());
                Instr::LoadGlobal {
                    dst: self.fresh(kind_of(GLOBALS[id].1)),
                    id,
                }
            }
            12 => {
                let id = self.rng.gen_range(0..GLOBALS.len());
                Instr::StoreGlobal {
                    id,
                    val: self.storable(GLOBALS[id].1),
                }
            }
            13 => {
                let id = self.rng.gen_range(0..GLOBALS.len());
                let op = gen::one_of(
                    self.rng,
                    &[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Or],
                );
                let val = if op == ReduceOp::Or {
                    self.integral()
                } else {
                    self.storable(GLOBALS[id].1)
                };
                Instr::ReduceGlobal {
                    id,
                    op,
                    val,
                    changed: self.rng.gen_bool(0.6).then(|| self.fresh(K::B)),
                }
            }
            14 => Instr::Enqueue {
                vertex: self.integral(),
            },
            15 => Instr::UpdatePrio {
                queue: 0,
                vertex: self.vertex(),
                op: gen::one_of(self.rng, &[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max]),
                val: self.integral(),
                atomic: self.rng.gen_bool(0.5),
            },
            16 => {
                let v = self.vertex();
                let dst = self.fresh(K::I);
                if self.rng.gen_bool(0.5) {
                    Instr::OutDegree { dst, v }
                } else {
                    Instr::InDegree { dst, v }
                }
            }
            17 => Instr::EdgeWeight {
                dst: self.fresh(K::I),
            },
            18 => {
                let (a, b) = (self.vertex(), self.vertex());
                Instr::Intersect {
                    dst: self.fresh(K::I),
                    a,
                    b,
                }
            }
            _ => match self.rng.gen_range(0..8) {
                0..=4 => {
                    let cond = self.integral();
                    Instr::JumpIfNot {
                        cond,
                        target: self.forward_target(),
                    }
                }
                5 | 6 => Instr::Jump {
                    target: self.forward_target(),
                },
                _ => Instr::Ret,
            },
        };
        self.instrs.push(ins);
    }
}

/// One well-typed program taking `num_params` arguments.
fn gen_program(rng: &mut Prng, num_params: usize) -> UdfProgram {
    let len = rng.gen_range(4..=24usize);
    let ret_kind = match rng.gen_range(0..4) {
        0 => None,
        1 => Some(K::I),
        2 => Some(K::F),
        _ => Some(K::B),
    };
    let mut g = Gen {
        rng,
        instrs: Vec::new(),
        regs: (0..num_params).map(|r| (r as Reg, K::I, 0)).collect(),
        // The weight parameter (third) is no vertex.
        vertices: (0..num_params.min(2)).map(|r| r as Reg).collect(),
        jumps: Vec::new(),
        num_regs: num_params,
        num_params,
        len,
    };
    // As the bytecode compiler does: the named return starts at its kind's
    // zero, written first.
    let ret_reg = ret_kind.map(|k| {
        let r = g.fresh(k);
        let v = match k {
            K::I => Value::Int(0),
            K::F => Value::Float(0.0),
            K::B => Value::Bool(false),
        };
        g.instrs.push(Instr::Const { dst: r, v });
        r
    });
    while g.at() < len {
        g.step();
    }
    g.instrs.push(Instr::Ret);
    UdfProgram {
        name: "generated".into(),
        num_regs: g.num_regs,
        num_params,
        ret_reg,
        instrs: g.instrs,
    }
}

/// Initial cells, property-major, and globals.
fn gen_state(rng: &mut Prng) -> (Vec<Vec<Value>>, Vec<Value>) {
    let cells = PROPS
        .iter()
        .map(|&(_, ty)| {
            (0..N)
                .map(|_| match ty {
                    Type::Vertex => Value::Int(rng.gen_range(-1..N as i64)),
                    _ => value_of_kind(rng, kind_of(ty)),
                })
                .collect()
        })
        .collect();
    let globals = GLOBALS
        .iter()
        .map(|&(_, ty)| value_of_kind(rng, kind_of(ty)))
        .collect();
    (cells, globals)
}

fn gen_case(rng: &mut Prng) -> Case {
    let num_params = rng.gen_range(1..=3usize);
    let udf = gen_program(rng, num_params);
    let (cells, globals) = gen_state(rng);
    let calls = (0..rng.gen_range(1..=4))
        .map(|_| {
            let args = (0..num_params)
                .map(|p| {
                    if p < 2 {
                        rng.gen_range(0..N as i64)
                    } else {
                        int_value(rng)
                    }
                })
                .collect();
            (args, int_value(rng))
        })
        .collect();
    Case {
        udf,
        cells,
        globals,
        calls,
        really_atomic: rng.gen_bool(0.5),
    }
}

#[test]
fn compiled_udfs_match_the_interpreter_on_random_programs() {
    check(
        "compiled_udfs_match_the_interpreter_on_random_programs",
        Config::with_cases(512),
        |rng: &mut Prng| NoShrink(gen_case(rng)),
        |case| {
            differential(&case.0);
        },
    );
}

/// A filter and an edge apply, the cells and globals they run on, and the
/// edges of one walk.
#[derive(Debug, Clone)]
struct OpCase {
    filter: UdfProgram,
    apply: UdfProgram,
    cells: Vec<Vec<Value>>,
    globals: Vec<Value>,
    /// `(src, dst, weight)` of each edge, in walk order.
    edges: Vec<(u32, u32, i64)>,
    /// Whether the filter guards the source (checked per vertex, before
    /// the edge) or the destination (spliced in front of the apply).
    on_src: bool,
    really_atomic: bool,
}

fn gen_op_case(rng: &mut Prng) -> OpCase {
    // Mostly filters an operator compiles: no enqueue or priority update
    // (whose effects the interpreter discards), no float verdict.
    let filter = loop {
        let f = gen_program(rng, 1);
        let effect = |i: &Instr| matches!(i, Instr::Enqueue { .. } | Instr::UpdatePrio { .. });
        let float = f.ret_reg.is_some()
            && matches!(
                f.instrs[0],
                Instr::Const {
                    v: Value::Float(_),
                    ..
                }
            );
        if !(f.instrs.iter().any(effect) || float) || rng.gen_bool(0.1) {
            break f;
        }
    };
    let arity = rng.gen_range(2..=3usize);
    let apply = gen_program(rng, arity);
    let (cells, globals) = gen_state(rng);
    let edges = (0..rng.gen_range(1..=6))
        .map(|_| {
            let (s, d) = (rng.gen_range(0..N), rng.gen_range(0..N));
            (s, d, int_value(rng))
        })
        .collect();
    OpCase {
        filter,
        apply,
        cells,
        globals,
        edges,
        on_src: rng.gen_bool(0.5),
        really_atomic: rng.gen_bool(0.5),
    }
}

/// Runs `case`'s walk as one compiled operator in one frame, or as the
/// interpreter's filter call and then (if it passed) its apply call, per
/// edge; `None` when the operator stays on the interpreter.
fn run_op(case: &OpCase, compiled: bool) -> Option<Outcome> {
    let udfs = UdfSet {
        udfs: vec![case.filter.clone(), case.apply.clone()],
        queue_props: vec![PQ],
    };
    let (f, a) = (UdfId(0), UdfId(1));
    let (props, globals) = state(&Case {
        udf: case.apply.clone(),
        cells: case.cells.clone(),
        globals: case.globals.clone(),
        calls: Vec::new(),
        really_atomic: case.really_atomic,
    });
    let graph = graph();
    let mut ev = Evaluator::new(&udfs, &props, &globals, &graph);
    ev.really_atomic = case.really_atomic;
    let (sf, df) = if case.on_src {
        (Some(f), None)
    } else {
        (None, Some(f))
    };
    let mut out = BufferedOutput::default();
    let edge_calls: Vec<(Vec<i64>, i64)> = case
        .edges
        .iter()
        .map(|&(s, d, w)| (vec![s as i64, d as i64, w], w))
        .collect();
    let arity = case.apply.num_params;
    let (returns, panic) = if compiled {
        let op = udf::CompiledOp::new(&udfs, &props, &globals, a, sf, df)?;
        let mut frame = Frame::new(&ev, &mut out);
        walk(&edge_calls, |e, _| {
            let (s, d, w) = (e[0] as u32, e[1] as u32, e[2]);
            if op.src_passes(&mut frame, s) {
                op.push_edge(&mut frame, s, d, w);
            }
            None
        })
    } else {
        walk(&edge_calls, |e, _| {
            let (s, d, w) = (e[0] as u32, e[1] as u32, e[2]);
            if ev.passes(sf, s, &mut NullMemory) && ev.passes(df, d, &mut NullMemory) {
                let args: Vec<Value> = e[..arity].iter().map(|&x| Value::Int(x)).collect();
                ev.call(a, &args, EdgeCtx { weight: w }, &mut out, &mut NullMemory);
            }
            None
        })
    };
    Some(Outcome {
        returns,
        panic,
        cells: (0..PROPS.len())
            .map(|p| (0..N).map(|v| props.read_bits(PropId(p), v)).collect())
            .collect(),
        globals: (0..GLOBALS.len()).map(|g| globals.read_bits(g)).collect(),
        enqueued: out.enqueued,
        priority_updates: out.priority_updates,
    })
}

#[test]
fn compiled_operators_match_filter_then_apply_on_random_programs() {
    check(
        "compiled_operators_match_filter_then_apply_on_random_programs",
        Config::with_cases(512),
        |rng: &mut Prng| NoShrink(gen_op_case(rng)),
        |case| {
            let case = &case.0;
            if let Some(compiled) = run_op(case, true) {
                let interpreted = run_op(case, false).expect("the interpreter runs all");
                assert_eq!(
                    compiled, interpreted,
                    "filter: {:?}\napply: {:?}",
                    case.filter, case.apply
                );
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Hand cases.
// ---------------------------------------------------------------------------

/// A case running `instrs` (plus `Ret`) as a one-parameter UDF on each of
/// `vertices`, with every cell at its zero and `setup` applied to them.
fn hand(
    instrs: Vec<Instr>,
    num_regs: usize,
    ret_reg: Option<Reg>,
    vertices: &[i64],
    setup: impl Fn(&mut Vec<Vec<Value>>),
) -> Case {
    let mut cells: Vec<Vec<Value>> = PROPS
        .iter()
        .map(|&(_, ty)| vec![Value::zero_of(ty); N as usize])
        .collect();
    setup(&mut cells);
    let mut instrs = instrs;
    instrs.push(Instr::Ret);
    Case {
        udf: UdfProgram {
            name: "hand".into(),
            num_regs,
            num_params: 1,
            ret_reg,
            instrs,
        },
        cells,
        globals: GLOBALS.iter().map(|&(_, ty)| Value::zero_of(ty)).collect(),
        calls: vertices.iter().map(|&v| (vec![v], 1)).collect(),
        really_atomic: true,
    }
}

fn returns(o: &Outcome) -> Vec<Value> {
    o.returns
        .iter()
        .map(|r| match r.expect("a return value") {
            (0, b) => Value::Int(b as i64),
            (1, b) => Value::Float(f64::from_bits(b)),
            (_, b) => Value::Bool(b != 0),
        })
        .collect()
}

#[test]
fn nan_and_negative_zero_compare_as_ieee() {
    let cells = [0.0, -0.0, f64::NAN, 1.0];
    for lit in [0.0, -0.0, f64::NAN] {
        for op in [BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Ne] {
            // r2 = pf[v] op lit, returned (a compare the compiler may fuse
            // only into a branch, so it is materialized here).
            let case = hand(
                vec![
                    Instr::LoadProp {
                        dst: 1,
                        prop: PF,
                        idx: 0,
                    },
                    Instr::Const {
                        dst: 2,
                        v: Value::Float(lit),
                    },
                    Instr::Bin {
                        op,
                        dst: 3,
                        a: 1,
                        b: 2,
                    },
                    Instr::Mov { dst: 4, src: 3 },
                ],
                5,
                Some(4),
                &[0, 1, 2, 3],
                |c| {
                    for (v, &x) in cells.iter().enumerate() {
                        c[1][v] = Value::Float(x);
                    }
                },
            );
            let want: Vec<Value> = cells
                .iter()
                .map(|&x| Value::bin(op, Value::Float(x), Value::Float(lit)))
                .collect();
            assert_eq!(returns(&differential(&case)), want, "{op:?} {lit}");
        }
    }
}

#[test]
fn int_and_float_promote_to_float() {
    // pf[v] = 3 + 0.5; pb[v] = (1 == 1.0); returns 7 / 2.0.
    let case = hand(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Int(3),
            },
            Instr::Const {
                dst: 2,
                v: Value::Float(0.5),
            },
            Instr::Bin {
                op: BinOp::Add,
                dst: 3,
                a: 1,
                b: 2,
            },
            Instr::StoreProp {
                prop: PF,
                idx: 0,
                val: 3,
            },
            Instr::Const {
                dst: 4,
                v: Value::Int(1),
            },
            Instr::Const {
                dst: 5,
                v: Value::Float(1.0),
            },
            Instr::Bin {
                op: BinOp::Eq,
                dst: 6,
                a: 4,
                b: 5,
            },
            Instr::StoreProp {
                prop: PB,
                idx: 0,
                val: 6,
            },
            Instr::Const {
                dst: 7,
                v: Value::Int(7),
            },
            Instr::Const {
                dst: 8,
                v: Value::Float(2.0),
            },
            Instr::Bin {
                op: BinOp::Div,
                dst: 9,
                a: 7,
                b: 8,
            },
        ],
        10,
        Some(9),
        &[2],
        |_| {},
    );
    let o = differential(&case);
    assert_eq!(returns(&o), vec![Value::Float(3.5)]);
    assert_eq!(f64::from_bits(o.cells[PF.0][2]), 3.5);
    assert_eq!(o.cells[PB.0][2], 1);
}

#[test]
fn integer_division_by_zero_panics_on_both_paths_alike() {
    for op in [BinOp::Div, BinOp::Mod] {
        // pi[v] = 1; then pi[v] / 0 — the store before the panic lands on
        // both paths, nothing after it does.
        let case = hand(
            vec![
                Instr::Const {
                    dst: 1,
                    v: Value::Int(1),
                },
                Instr::StoreProp {
                    prop: PI,
                    idx: 0,
                    val: 1,
                },
                Instr::Const {
                    dst: 2,
                    v: Value::Int(0),
                },
                Instr::Bin {
                    op,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::StoreProp {
                    prop: PI,
                    idx: 0,
                    val: 3,
                },
            ],
            4,
            None,
            &[0, 1],
            |_| {},
        );
        let o = differential(&case);
        let (class, message) = o.panic.expect("division by zero panics");
        assert_eq!(class, ErrorClass::Invariant, "{message}");
        assert!(message.contains("zero"), "{message}");
        assert_eq!(o.cells[PI.0][0], 1, "the store before the panic lands");
        assert!(o.returns.is_empty());
    }
}

#[test]
fn float_stored_into_an_int_property_panics_alike() {
    let case = hand(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Float(1.5),
            },
            Instr::StoreProp {
                prop: PI,
                idx: 0,
                val: 1,
            },
        ],
        2,
        None,
        &[0],
        |_| {},
    );
    let (props, globals) = state(&case);
    assert!(
        udf::compile(&case.udf, &[PQ], &props, &globals).is_some(),
        "the store compiles and panics where the interpreter does"
    );
    let (class, message) = differential(&case).panic.expect("as_int on a float panics");
    assert_eq!(class, ErrorClass::Invariant);
    assert!(message.contains("expected int value"), "{message}");
}

#[test]
fn sum_of_zero_reports_unchanged() {
    for zero in [Value::Int(0), Value::Float(0.0), Value::Float(-0.0)] {
        let prop = if matches!(zero, Value::Int(_)) {
            PI
        } else {
            PF
        };
        let case = hand(
            vec![
                Instr::Const { dst: 1, v: zero },
                Instr::ReduceProp {
                    prop,
                    idx: 0,
                    op: ReduceOp::Sum,
                    val: 1,
                    atomic: true,
                    changed: Some(2),
                },
                Instr::Mov { dst: 3, src: 2 },
            ],
            4,
            Some(3),
            &[0, 4],
            |_| {},
        );
        assert_eq!(
            returns(&differential(&case)),
            vec![Value::Bool(false); 2],
            "{zero:?}"
        );
    }
}

#[test]
fn update_priority_sum_notifies_the_reread_cell() {
    // pq[v] += 5 twice: notified 5 + 5 = 10 the second time, not 5.
    let case = hand(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Int(5),
            },
            Instr::UpdatePrio {
                queue: 0,
                vertex: 0,
                op: ReduceOp::Sum,
                val: 1,
                atomic: true,
            },
        ],
        2,
        None,
        &[3, 3],
        |_| {},
    );
    let o = differential(&case);
    assert_eq!(o.priority_updates, vec![(0, 3, 5), (0, 3, 10)]);
}

#[test]
fn reduce_global_reports_whether_it_changed() {
    // gi min= pi[v]: changed only while it improves.
    let case = hand(
        vec![
            Instr::LoadProp {
                dst: 1,
                prop: PI,
                idx: 0,
            },
            Instr::ReduceGlobal {
                id: 0,
                op: ReduceOp::Min,
                val: 1,
                changed: Some(2),
            },
            Instr::Mov { dst: 3, src: 2 },
        ],
        4,
        Some(3),
        &[0, 1, 2],
        |c| {
            c[0][0] = Value::Int(-1);
            c[0][1] = Value::Int(3);
            c[0][2] = Value::Int(-4);
        },
    );
    let o = differential(&case);
    assert_eq!(returns(&o), [true, false, true].map(Value::Bool).to_vec());
    assert_eq!(o.globals[0] as i64, -4);
}

#[test]
fn bool_compares_with_int_as_an_integer() {
    for (b, i, op, want) in [
        (true, 1, BinOp::Eq, true),
        (false, 0, BinOp::Eq, true),
        (true, 2, BinOp::Lt, true),
        (false, -1, BinOp::Gt, true),
        (true, 0, BinOp::Le, false),
    ] {
        let case = hand(
            vec![
                Instr::Const {
                    dst: 1,
                    v: Value::Bool(b),
                },
                Instr::Const {
                    dst: 2,
                    v: Value::Int(i),
                },
                Instr::Bin {
                    op,
                    dst: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Mov { dst: 4, src: 3 },
            ],
            5,
            Some(4),
            &[0],
            |_| {},
        );
        assert_eq!(
            returns(&differential(&case)),
            vec![Value::Bool(want)],
            "{b} {op:?} {i}"
        );
    }
}

#[test]
fn ill_typed_programs_stay_on_the_interpreter() {
    let rejects = |instrs: Vec<Instr>, num_regs: usize| {
        let case = hand(instrs, num_regs, None, &[0], |_| {});
        let (props, globals) = state(&case);
        assert!(
            udf::compile(&case.udf, &[PQ], &props, &globals).is_none(),
            "{:?}",
            case.udf.instrs
        );
    };
    // A float as a property index.
    rejects(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Float(1.0),
            },
            Instr::LoadProp {
                dst: 2,
                prop: PI,
                idx: 1,
            },
        ],
        3,
    );
    // One register, two kinds, each read (a write nothing reads is
    // dropped before kinds are fixed).
    rejects(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Float(1.0),
            },
            Instr::StoreProp {
                prop: PF,
                idx: 0,
                val: 1,
            },
            Instr::Const {
                dst: 1,
                v: Value::Int(1),
            },
            Instr::StoreProp {
                prop: PI,
                idx: 0,
                val: 1,
            },
        ],
        2,
    );
    // A loop: compiled bodies only run forward.
    rejects(
        vec![
            Instr::Const {
                dst: 1,
                v: Value::Bool(false),
            },
            Instr::JumpIfNot { cond: 1, target: 0 },
        ],
        2,
    );
    // A float register that a jump may skip the write of.
    rejects(
        vec![
            Instr::JumpIfNot { cond: 0, target: 2 },
            Instr::Const {
                dst: 1,
                v: Value::Float(1.0),
            },
            Instr::StoreProp {
                prop: PF,
                idx: 0,
                val: 1,
            },
        ],
        2,
    );
}

/// Every GraphVM runs its host-side `VertexSetFilter` sweep through the
/// compiled body: k-core's peel filter never reaches the interpreter on the
/// GPU, Swarm or HammerBlade simulators — below the serial cutoff or above
/// it — and each simulator's coreness stays exact.
#[test]
fn kcore_filter_sweeps_run_compiled_on_every_simulator() {
    use ugc::{Algorithm, Compiler, Target};
    use ugc_telemetry::Counter;

    let compiled = Counter::new("runtime.vertex_filter.compiled");
    let interpreted = Counter::new("runtime.vertex_filter.interpreted");
    let graphs = [
        ugc_graph::generators::two_communities(),
        ugc_graph::generators::rmat(10, 6, 3, false),
    ];
    for graph in &graphs {
        let reference = ugc_algorithms::reference::coreness(graph);
        for target in [Target::Gpu, Target::Swarm, Target::HammerBlade] {
            let before = (compiled.get(), interpreted.get());
            let run = Compiler::new(Algorithm::KCore)
                .run(target, graph)
                .unwrap_or_else(|e| panic!("{target:?}: {e}"));
            assert_eq!(run.property_ints("core"), &reference[..], "{target:?}");
            if ugc_telemetry::enabled() {
                assert!(compiled.get() > before.0, "{target:?}: no compiled sweep");
                assert_eq!(interpreted.get(), before.1, "{target:?}: interpreted");
            }
        }
    }
}
