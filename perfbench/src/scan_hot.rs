//! `scan_hot`: warm execution of cached plans, one thread, closed loop.
//!
//! Thirteen shapes run through the `Steno` facade with adaptive
//! re-optimization on, each over seeded columns of two sizes: 2^18
//! elements (past the per-core L2) and a cache-resident 2^10 where
//! fixed per-run costs show.
//! Each size has its own engine, so a plan only ever sees one input
//! scale. Every run is checked against a hand loop (the shapes
//! `crates/bench` has hand loops for) or `steno_linq::interp::execute`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bench::prng::SplitMix64;
use bench::workloads::{mixture_of_gaussians, uniform_doubles};
use steno::Steno;
use steno_expr::{DataContext, Expr, Ty, UdfRegistry, Value};
use steno_obs::MemoryCollector;
use steno_query::typing::SourceTypes;
use steno_query::{Query, QueryExpr};

use crate::check;
use crate::layers::{self, CompileCounts, LayerSet, PlanCase};
use crate::report::Report;
use crate::stats::{case_latency, geomean, median, peak_rss_mib, round_rate, setup_median, timed};
use crate::trace::Spans;
use crate::Args;

/// 2^18 rather than 2^20 keeps the scalar-tier shapes' warm-up (17
/// runs per plan, repeated per set-up) within the run budget.
const LARGE: usize = 1 << 18;
const SMALL: usize = 1 << 10;
/// Runs per plan before measuring: past the facade's 16 profiled
/// adaptive warm-up runs, so the measured phase is the steady state.
const WARMUP_RUNS: usize = 17;
const SETUP_REPS: usize = 3;
/// Tail percentile per case: at 20 s each case runs 75-140 times,
/// depending on the host's phase, so 7-14 samples lie beyond it.
const TAIL_PCT: f64 = 90.0;

/// Coefficients of the `fig_adaptive` score polynomial, low degree first.
const POLY: [f64; 16] = [
    0.11, 0.07, 0.13, 0.05, 0.17, 0.03, 0.19, 0.02, 0.23, 0.08, 0.29, 0.04, 0.31, 0.06, 0.37, 0.09,
];
const CUT: f64 = 0.98;

fn poly_eval(x: f64) -> f64 {
    let mut e = POLY[POLY.len() - 1];
    for &c in POLY.iter().rev().skip(1) {
        e = e * x + c;
    }
    e
}

/// The score polynomial as query text, in the same Horner order.
fn poly_text() -> String {
    let mut e = format!("{:?}", POLY[POLY.len() - 1]);
    for &c in POLY.iter().rev().skip(1) {
        e = format!("({e}) * x + {c:?}");
    }
    e
}

/// The seeded columns of one size.
struct Inputs {
    n: usize,
    /// Uniform doubles in [0, 1).
    xs: Vec<f64>,
    /// Mixture-of-Gaussians doubles (the Fig. 13 Group input).
    gs: Vec<f64>,
    /// 0..n as i64.
    ns: Vec<i64>,
    /// Random i64 keys in 0..n/6 (~n/6 distinct: no power of two).
    ks: Vec<i64>,
    /// Cartesian outer and inner collections (sqrt(n) each).
    cx: Vec<f64>,
    cy: Vec<f64>,
}

impl Inputs {
    fn new(n: usize, seed: u64) -> Inputs {
        let side = (n as f64).sqrt() as usize;
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0004);
        let keys = (n / 6).max(1);
        Inputs {
            n,
            xs: uniform_doubles(n, seed ^ 0x5EED_0001),
            gs: mixture_of_gaussians(n, seed ^ 0x5EED_0002),
            ns: (0..n as i64).collect(),
            ks: (0..n).map(|_| rng.index(keys) as i64).collect(),
            cx: uniform_doubles(side, seed ^ 0x5EED_0005),
            cy: uniform_doubles(side, seed ^ 0x5EED_0006),
        }
    }

    fn context(&self) -> DataContext {
        DataContext::new()
            .with_source("xs", self.xs.clone())
            .with_source("gs", self.gs.clone())
            .with_source("ns", self.ns.clone())
            .with_source("ks", self.ks.clone())
            .with_source("cx", self.cx.clone())
            .with_source("cy", self.cy.clone())
    }
}

/// A hand-written loop computing a shape's result.
type Hand = fn(&Inputs) -> Value;

struct Shape {
    name: &'static str,
    /// Query text, when the shape is spellable in the text grammar.
    text: Option<String>,
    query: QueryExpr,
    hand: Option<Hand>,
    /// Input elements one run consumes.
    elements: fn(&Inputs) -> usize,
}

fn hand_sum(i: &Inputs) -> Value {
    let mut s = 0.0;
    for k in 0..i.xs.len() {
        s += i.xs[k];
    }
    Value::F64(s)
}

fn hand_sumsq(i: &Inputs) -> Value {
    let mut s = 0.0;
    for k in 0..i.xs.len() {
        let x = i.xs[k];
        s += x * x;
    }
    Value::F64(s)
}

fn hand_cart(i: &Inputs) -> Value {
    let mut s = 0.0;
    for a in 0..i.cx.len() {
        let x = i.cx[a];
        for b in 0..i.cy.len() {
            s += x * i.cy[b];
        }
    }
    Value::F64(s)
}

fn hand_group(i: &Inputs) -> Value {
    let mut index: HashMap<i64, usize> = HashMap::new();
    let mut bins: Vec<(f64, i64)> = Vec::new();
    for k in 0..i.gs.len() {
        let b = i.gs[k].floor();
        match index.get(&(b as i64)) {
            Some(&slot) => bins[slot].1 += 1,
            None => {
                index.insert(b as i64, bins.len());
                bins.push((b, 1));
            }
        }
    }
    Value::Seq(Arc::new(
        bins.into_iter()
            .map(|(k, c)| Value::pair(Value::F64(k), Value::I64(c)))
            .collect(),
    ))
}

fn hand_filtered_sum(i: &Inputs) -> Value {
    let mut s = 0.0;
    for &x in &i.xs {
        if x > 0.5 {
            s += x * 2.0;
        }
    }
    Value::F64(s)
}

fn hand_int_mult3(i: &Inputs) -> Value {
    let mut s = 0i64;
    for &x in &i.ns {
        if x % 3 == 0 {
            s = s.wrapping_add(x.wrapping_mul(x));
        }
    }
    Value::I64(s)
}

fn hand_collatz(i: &Inputs) -> Value {
    let mut s = 0i64;
    for &x in &i.ns {
        s = s.wrapping_add(if x % 2 == 0 {
            x / 2
        } else {
            3i64.wrapping_mul(x).wrapping_add(1)
        });
    }
    Value::I64(s)
}

fn hand_adaptive(i: &Inputs) -> Value {
    let mut s = 0.0;
    for &x in &i.xs {
        if x > CUT && poly_eval(x) > 0.0 {
            s += x * 2.0;
        }
    }
    Value::F64(s)
}

fn n_of(i: &Inputs) -> usize {
    i.n
}

fn pairs_of(i: &Inputs) -> usize {
    i.cx.len() * i.cy.len()
}

fn parsed(text: &str) -> Result<QueryExpr, String> {
    steno_syntax::parse_query(text)
        .map(|(q, _)| q)
        .map_err(|e| format!("parse `{text}`: {e}"))
}

fn text_shape(
    name: &'static str,
    text: String,
    hand: Option<Hand>,
    elements: fn(&Inputs) -> usize,
) -> Result<Shape, String> {
    Ok(Shape {
        name,
        query: parsed(&text)?,
        text: Some(text),
        hand,
        elements,
    })
}

/// The shapes for inputs of `n` elements (take/skip and take_while
/// bounds scale with `n`).
fn shapes(n: usize) -> Result<Vec<Shape>, String> {
    let x = || Expr::var("x");
    // No conditional expressions in the text grammar: built directly,
    // as `fig_vectorized` does.
    let collatz = Query::source("ns")
        .select(
            Expr::if_(
                (x() % Expr::liti(2)).eq(Expr::liti(0)),
                x() / Expr::liti(2),
                Expr::liti(3) * x() + Expr::liti(1),
            ),
            "x",
        )
        .sum()
        .build();
    Ok(vec![
        text_shape("Sum", "xs.sum()".into(), Some(hand_sum), n_of)?,
        text_shape(
            "SumSq",
            "(from x in xs select x * x).sum()".into(),
            Some(hand_sumsq),
            n_of,
        )?,
        text_shape(
            "Cart",
            "(from x in cx from y in cy select x * y).sum()".into(),
            Some(hand_cart),
            pairs_of,
        )?,
        text_shape(
            "Group",
            "gs.groupBy(|x| x.floor()).select(|kv| (kv.0, kv.1.count()))".into(),
            Some(hand_group),
            n_of,
        )?,
        text_shape(
            "filtered_sum",
            "xs.where(|x| x > 0.5).select(|x| x * 2.0).sum()".into(),
            Some(hand_filtered_sum),
            n_of,
        )?,
        text_shape(
            "int_mult3_sumsq",
            "ns.where(|x| x % 3 == 0).select(|x| x * x).sum()".into(),
            Some(hand_int_mult3),
            n_of,
        )?,
        Shape {
            name: "guarded_div_collatz",
            text: None,
            query: collatz,
            hand: Some(hand_collatz),
            elements: n_of,
        },
        text_shape(
            "adaptive_filter_reorder",
            format!(
                "xs.where(|x| {} > 0.0).where(|x| x > {CUT:?}).select(|x| boost(x)).sum()",
                poly_text()
            ),
            Some(hand_adaptive),
            n_of,
        )?,
        text_shape(
            "take_skip",
            format!("xs.skip({}).take({}).sum()", n / 4, n / 2),
            None,
            n_of,
        )?,
        text_shape(
            "take_while",
            format!("ns.takeWhile(|x| x < {}).sum()", 3 * n / 4),
            None,
            n_of,
        )?,
        text_shape("average", "xs.average()".into(), None, n_of)?,
        text_shape(
            "order_by",
            // Keeps ~3/4 of the input: a count far from a power of two,
            // so buffer capacities (and peak memory) do not depend on
            // the seed.
            "from x in xs where x > 0.25 orderby x descending select x + 1.0".into(),
            None,
            n_of,
        )?,
        text_shape("distinct", "ks.distinct()".into(), None, n_of)?,
    ])
}

/// `boost(x) = 2x`, registered pure (the `fig_adaptive` UDF).
fn udfs() -> UdfRegistry {
    let mut udfs = UdfRegistry::new();
    udfs.register_pure("boost", vec![Ty::F64], Ty::F64, |args: &[Value]| {
        Value::F64(args[0].as_f64().unwrap_or(0.0) * 2.0)
    });
    udfs
}

/// One (shape, size) pair: its inputs, engine, reference result.
struct Case {
    label: String,
    size: usize,
    shape: usize,
    reference: Value,
    /// Nanoseconds `steno_linq::interp::execute` took for the
    /// reference, when the reference came from it.
    linq_ns: Option<f64>,
    elements: usize,
}

/// Everything a measured phase needs.
struct Setup {
    inputs: Vec<Inputs>,
    ctxs: Vec<DataContext>,
    engines: Vec<Steno>,
    shapes: Vec<Vec<Shape>>,
    udfs: UdfRegistry,
    cases: Vec<Case>,
    collectors: Vec<Arc<MemoryCollector>>,
}

fn reference(
    shape: &Shape,
    inputs: &Inputs,
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> Result<(Value, Option<f64>), String> {
    match shape.hand {
        Some(h) => Ok((h(inputs), None)),
        None => {
            let (v, ns) = timed(|| steno_linq::interp::execute(&shape.query, ctx, udfs));
            let v = v.map_err(|e| format!("reference interp for {}: {e}", shape.name))?;
            Ok((v, Some(ns)))
        }
    }
}

fn run_case(s: &Setup, c: &Case) -> Result<Value, String> {
    let shape = &s.shapes[c.size][c.shape];
    s.engines[c.size]
        .execute(&shape.query, &s.ctxs[c.size], &s.udfs)
        .map_err(|e| format!("{}: {e}", c.label))
}

/// As [`run_case`], split into the two public calls `Steno::execute`
/// makes — the plan-cache lookup and the adaptive run — under spans.
fn run_case_traced(s: &Setup, c: &Case, spans: &mut Spans, req: u64) -> Result<Value, String> {
    let shape = &s.shapes[c.size][c.shape];
    let engine = &s.engines[c.size];
    let ctx = &s.ctxs[c.size];
    let root = spans.begin("steno.execute", None, req);
    let plan = spans
        .leaf("steno.plan_lookup", Some(root), req, || {
            engine.compile(&shape.query, SourceTypes::from(ctx), &s.udfs)
        })
        .map_err(|e| format!("{}: {e}", c.label))?;
    let out = spans
        .leaf("steno-vm.run", Some(root), req, || {
            engine.run_compiled_adaptive(
                &shape.query,
                ctx,
                &s.udfs,
                &plan,
                &steno_vm::Interrupt::none(),
                *engine.options(),
            )
        })
        .map_err(|e| format!("{}: {e}", c.label));
    spans.end(root);
    out
}

/// Builds inputs, engines and plans, and warms every plan up. Returns
/// the set-up and the seconds the timed part took (references are
/// computed outside the timed part: they are the benchmark's checking
/// machinery, not the system's set-up).
fn setup(seed: u64, traced: bool) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let sizes = [LARGE, SMALL];
    let inputs: Vec<Inputs> = sizes
        .iter()
        .enumerate()
        .map(|(k, &n)| Inputs::new(n, seed.wrapping_add(k as u64)))
        .collect();
    let ctxs: Vec<DataContext> = inputs.iter().map(Inputs::context).collect();
    let collectors: Vec<Arc<MemoryCollector>> = sizes
        .iter()
        .map(|_| Arc::new(MemoryCollector::new()))
        .collect();
    let engines: Vec<Steno> = collectors
        .iter()
        .map(|col| {
            let e = Steno::new().with_adaptive(true);
            if traced {
                e.with_collector(col.clone())
            } else {
                e
            }
        })
        .collect();
    let shapes = sizes
        .iter()
        .map(|&n| shapes(n))
        .collect::<Result<Vec<_>, _>>()?;
    let udfs = udfs();
    let mut timed_s = t0.elapsed().as_secs_f64();

    let mut cases = Vec::new();
    for (size, (inp, ctx)) in inputs.iter().zip(&ctxs).enumerate() {
        for (k, shape) in shapes[size].iter().enumerate() {
            let (reference, linq_ns) = reference(shape, inp, ctx, &udfs)?;
            cases.push(Case {
                label: format!("{}@{}", shape.name, inp.n),
                size,
                shape: k,
                reference,
                linq_ns,
                elements: (shape.elements)(inp),
            });
        }
    }
    let s = Setup {
        inputs,
        ctxs,
        engines,
        shapes,
        udfs,
        cases,
        collectors,
    };
    let t1 = Instant::now();
    for c in &s.cases {
        for _ in 0..WARMUP_RUNS {
            let v = run_case(&s, c)?;
            check::expect(&c.label, &v, &c.reference)?;
        }
    }
    timed_s += t1.elapsed().as_secs_f64();
    Ok((s, timed_s))
}

/// Per-case samples of one measured phase.
struct Phase {
    steno_ns: Vec<Vec<f64>>,
    hand_ns: Vec<Vec<f64>>,
}

impl Phase {
    /// Operations run (every one checked).
    fn ops(&self) -> u64 {
        self.steno_ns.iter().map(Vec::len).sum::<usize>() as u64
    }
}

/// Round-robin over every case until `seconds` pass; each round also
/// times every hand loop once, so Steno and hand see the same box
/// phases. `spans` records a `steno.execute` span per operation.
fn measure(s: &Setup, seconds: f64, mut spans: Option<&mut Spans>) -> Result<Phase, String> {
    let mut p = Phase {
        steno_ns: vec![Vec::new(); s.cases.len()],
        hand_ns: vec![Vec::new(); s.cases.len()],
    };
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for (k, c) in s.cases.iter().enumerate() {
            let shape = &s.shapes[c.size][c.shape];
            let t = Instant::now();
            let out = match spans.as_deref_mut() {
                Some(sp) => run_case_traced(s, c, sp, req),
                None => run_case(s, c),
            };
            let ns = t.elapsed().as_nanos() as f64;
            req += 1;
            // An error is a wrong answer: the reference succeeded.
            check::expect(&c.label, &out?, &c.reference)?;
            p.steno_ns[k].push(ns);
            if let Some(h) = shape.hand {
                let (v, ns) = timed(|| h(&s.inputs[c.size]));
                std::hint::black_box(v);
                p.hand_ns[k].push(ns);
            }
        }
    }
    Ok(p)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (s, first_setup) = setup(args.seed, args.trace)?;
    let secs = args.seconds.as_secs_f64();
    if args.trace {
        return traced(args, s, report);
    }
    let p = measure(&s, secs, None)?;
    report.attempted = p.ops();

    let mut per_elem = Vec::new();
    let mut vs_hand = Vec::new();
    for (k, c) in s.cases.iter().enumerate() {
        let m = median(&p.steno_ns[k]);
        let npe = m / c.elements as f64;
        per_elem.push(npe);
        let plan = s.engines[c.size]
            .compile(
                &s.shapes[c.size][c.shape].query,
                SourceTypes::from(&s.ctxs[c.size]),
                &s.udfs,
            )
            .map_err(|e| format!("{}: {e}", c.label))?;
        let tiers: Vec<String> = plan
            .loop_plans()
            .iter()
            .map(|lp| lp.tier.to_string())
            .collect();
        let hand = if p.hand_ns[k].is_empty() {
            String::new()
        } else {
            let h = median(&p.hand_ns[k]);
            vs_hand.push(m / h);
            format!(
                "  hand {:>9.3} ns/elem  steno/hand {:>6.2}",
                h / c.elements as f64,
                m / h
            )
        };
        report.detail(format!(
            "{:<34} {:>9.3} ns/elem  runs {:>5}  tiers [{}]{hand}",
            c.label,
            npe,
            p.steno_ns[k].len(),
            tiers.join(",")
        ));
    }
    let lat = case_latency(&p.steno_ns, TAIL_PCT);
    report.detail(format!(
        "latency: geomean over cases of each case's p50 and p{} ({} samples; at least {} beyond the tail in each case)",
        lat.tail_pct, lat.samples, lat.beyond
    ));
    report.e2e("throughput_ops_per_s", round_rate(&p.steno_ns), "1/s");
    report.e2e("latency_p50_us", lat.p50 / 1e3, "us");
    report.e2e("latency_tail_us", lat.tail / 1e3, "us");
    report.e2e("exec_ns_per_elem", geomean(&per_elem), "ns");
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    drop(s);
    let setup_s = setup_median(first_setup, SETUP_REPS, || {
        setup(args.seed, false).map(|(_, t)| t)
    })?;
    report.e2e("setup_s", setup_s, "s");
    report.extra("exec_vs_hand", geomean(&vs_hand), "ratio");
    report.extra("latency_tail_pct", lat.tail_pct, "%");
    Ok(report)
}

fn traced(args: &Args, s: Setup, mut report: Report) -> Result<Report, String> {
    let half = args.seconds.as_secs_f64() / 2.0;
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let plain = measure(&s, half, None)?;
    let traced = measure(&s, half, Some(&mut spans))?;
    report.attempted = plain.ops() + traced.ops();
    let ratios: Vec<f64> = (0..s.cases.len())
        .filter(|&k| !plain.steno_ns[k].is_empty() && !traced.steno_ns[k].is_empty())
        .map(|k| median(&traced.steno_ns[k]) / median(&plain.steno_ns[k]))
        .collect();

    let mut layers = LayerSet::new();
    layers.set("bench.trace_overhead", geomean(&ratios));
    // Compile side: the scan_hot plans, compiled stage by stage.
    let mut counts = CompileCounts::default();
    for (k, shape) in s.shapes[0].iter().enumerate() {
        layers::staged_compile(
            &mut spans,
            &mut counts,
            k as u64,
            shape.text.as_deref(),
            &shape.query,
            &SourceTypes::from(&s.ctxs[0]),
            &s.udfs,
        )?;
    }
    // Execution side: every plan, on the engine that cached it.
    let mut cases = Vec::new();
    for c in &s.cases {
        let shape = &s.shapes[c.size][c.shape];
        let engine = &s.engines[c.size];
        let plan = engine
            .compile(&shape.query, SourceTypes::from(&s.ctxs[c.size]), &s.udfs)
            .map_err(|e| format!("{}: {e}", c.label))?;
        cases.push(PlanCase {
            engine,
            query: &shape.query,
            plan,
            ctx: &s.ctxs[c.size],
            udfs: &s.udfs,
            elements: c.elements as f64,
        });
    }
    let (mut hits, mut lookups, mut reopts) = (0u64, 0u64, 0u64);
    for (engine, col) in s.engines.iter().zip(&s.collectors) {
        let st = engine.detailed_cache_stats();
        hits += st.hits;
        lookups += st.hits + st.misses;
        reopts += col.counter_value("steno.reopt");
    }
    layers::exec_layers(&mut layers, &mut spans, &cases)?;
    layers.set("steno-opt.reopts", reopts as f64);
    layers.set(
        "steno-vm.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    let linq: Vec<f64> = s
        .cases
        .iter()
        .filter_map(|c| c.linq_ns.map(|ns| ns / c.elements as f64))
        .collect();
    layers.set("steno-linq.exec_ns_per_elem", geomean(&linq));

    let totals = spans.totals();
    layers::compile_layers(&mut layers, &counts, &totals);
    layers::shares(
        &mut report,
        &[
            (
                "steno.plan_lookup",
                layers::mean_us(&totals, "steno.plan_lookup"),
            ),
            ("steno-vm.run", layers::mean_us(&totals, "steno-vm.run")),
        ],
    );
    let path = spans.write(&format!("spans-scan_hot-{}.jsonl", args.seed))?;
    report.detail(format!("spans written to {path}"));
    layers.into_report(&mut report);
    Ok(report)
}
