//! `compile_cold`: cache-missing compiles, one thread, closed loop.
//!
//! A seeded generator over the text-corpus operator grammar draws
//! distinct queries, so every one misses the plan cache. Each text runs
//! once through `Steno::execute_text` on a verifying engine
//! (`with_verify(true)`) over a 1024-element context. The generator
//! cycles through a fixed list of twenty shape templates, so every run
//! holds the same mix. Two in twenty are `concat` shapes, which the text
//! grammar cannot spell: they are built with the query builder and run
//! through `Steno::execute`, where they fall back to `steno-linq`. Two
//! in twenty are `join`s, which canonicalize into their `SelectMany`
//! form and compile. Every result is checked against
//! `steno_linq::interp::execute`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use bench::prng::SplitMix64;
use steno::{ExecutionPath, Steno};
use steno_expr::{DataContext, Expr, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::{Query, QueryExpr};

use crate::check;
use crate::layers::{self, CompileCounts, LayerSet, PlanCase, Staged};
use crate::report::Report;
use crate::stats::{case_latency, geomean, median, peak_rss_mib, setup_median, timed};
use crate::trace::Spans;
use crate::Args;

/// Elements in each primary source (`xs`, `ns`).
const CONTEXT: usize = 1024;
/// Elements in the inner sources (`ys`, `ms`) of nested and join shapes.
const INNER: usize = 32;
/// Queries drawn and run before measuring: whole passes over `CYCLE`,
/// so the measured phase starts at its first template.
const WARMUP_QUERIES: usize = 400;
const _: () = assert!(WARMUP_QUERIES.is_multiple_of(CYCLE.len()));
const SETUP_REPS: usize = 5;
/// Tail percentile per template: at 20 s each of the twenty templates
/// runs 240+ times. Latency is taken per template (geomean over
/// templates of each one's p50 and tail): a p99 over all queries is set
/// by the few draws whose plan verification is costliest, and how many
/// of those a run holds varies, so it spread 0.30 over seven seeds
/// where the per-template p90 spread 0.04.
const TAIL_PCT: f64 = 90.0;
/// Plan-cache bound: every query misses, so this only caps memory. It is
/// below `WARMUP_QUERIES`, so the cache is full before measuring and
/// every measured miss also evicts.
const CACHE_CAPACITY: usize = 256;
/// Queries drawn, then run back to back, per batch.
const BATCH: usize = 20;
/// Draws the duplicate filter holds without growing.
const SEEN_CAPACITY: usize = 1 << 16;
/// Plans (still cached) whose execution the traced run profiles.
const EXEC_SAMPLE: usize = 48;

fn context(seed: u64) -> DataContext {
    let mut rng = SplitMix64::new(seed ^ 0xC01D);
    let xs: Vec<f64> = (0..CONTEXT).map(|_| rng.range_f64(-50.0, 50.0)).collect();
    let ns: Vec<i64> = (0..CONTEXT).map(|_| 1 + rng.index(1000) as i64).collect();
    let ys: Vec<f64> = (0..INNER).map(|_| rng.range_f64(-4.0, 4.0)).collect();
    let ms: Vec<i64> = (0..INNER).map(|_| rng.index(64) as i64).collect();
    DataContext::new()
        .with_source("xs", xs)
        .with_source("ns", ns)
        .with_source("ys", ys)
        .with_source("ms", ms)
}

/// How a drawn query runs.
enum Draw {
    /// Query text for `Steno::execute_text`.
    Text(String),
    /// A builder-made `concat` shape for `Steno::execute`.
    Concat(Box<QueryExpr>),
}

/// The shape family of one draw.
#[derive(Clone, Copy)]
enum Template {
    Concat { float: bool },
    Join,
    SelectMany,
    Group { float: bool },
    Plain { float: bool, terminal: &'static str },
}

/// The draw order. Cycling through a fixed list keeps the mix of shape
/// families and terminals the same in every run (the seed picks the
/// operators and literals), so the latency percentiles do not move
/// with the mix. Two in twenty are `concat` (fallback), two `join`.
const CYCLE: [Template; 20] = {
    use Template::*;
    [
        Concat { float: true },
        Plain {
            float: true,
            terminal: ".sum()",
        },
        Join,
        Plain {
            float: false,
            terminal: ".sum()",
        },
        SelectMany,
        Plain {
            float: true,
            terminal: ".count()",
        },
        Group { float: true },
        Plain {
            float: false,
            terminal: ".count()",
        },
        Plain {
            float: true,
            terminal: ".min()",
        },
        Plain {
            float: false,
            terminal: ".max()",
        },
        Concat { float: false },
        Plain {
            float: true,
            terminal: ".max()",
        },
        Join,
        Plain {
            float: false,
            terminal: ".min()",
        },
        SelectMany,
        Plain {
            float: true,
            terminal: ".average()",
        },
        Group { float: false },
        Plain {
            float: true,
            terminal: "",
        },
        Plain {
            float: false,
            terminal: "",
        },
        Plain {
            float: false,
            terminal: ".sum()",
        },
    ]
};

fn source(float: bool) -> &'static str {
    if float {
        "xs"
    } else {
        "ns"
    }
}

/// The seeded query generator.
struct Generator {
    rng: SplitMix64,
    /// Hashes of the queries drawn so far, preallocated so memory does
    /// not grow with the number of draws.
    seen: HashSet<u64>,
    /// Queries accepted so far (the position in `CYCLE`).
    drawn: usize,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: SplitMix64::new(seed),
            seen: HashSet::with_capacity(SEEN_CAPACITY),
            drawn: 0,
        }
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.rng.index(xs.len())]
    }

    /// A float literal with two decimals in `[lo, hi)`.
    fn flit(&mut self, lo: f64, hi: f64) -> String {
        format!("{:.2}", self.rng.range_f64(lo, hi))
    }

    fn ilit(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.rng.index((hi - lo) as usize) as i64
    }

    /// One pipeline operator on a chain whose elements are f64
    /// (`float`) or i64.
    fn op(&mut self, float: bool) -> String {
        let kind = self.rng.index(9);
        match (kind, float) {
            (0 | 1, true) => {
                let c = self.flit(-45.0, 45.0);
                format!(".where(|x| x {} {c})", self.pick(&[">", "<"]))
            }
            (0, false) => format!(".where(|x| x % {} == 0)", self.ilit(2, 6)),
            (1, false) => {
                let c = self.ilit(50, 950);
                format!(".where(|x| x {} {c})", self.pick(&[">", "<"]))
            }
            (2 | 3, true) => {
                let c = self.flit(0.5, 3.0);
                format!(".select(|x| x {} {c})", self.pick(&["*", "+", "-"]))
            }
            (2 | 3, false) => {
                let c = self.ilit(1, 9);
                format!(".select(|x| x {} {c})", self.pick(&["*", "+", "-"]))
            }
            (4, _) => format!(".take({})", self.ilit(16, 900)),
            (5, _) => format!(".skip({})", self.ilit(1, 200)),
            (6, true) => format!(".takeWhile(|x| x < {})", self.flit(10.0, 50.0)),
            (6, false) => format!(".takeWhile(|x| x < {})", self.ilit(600, 1000)),
            (7, _) => self
                .pick(&[".orderBy(|x| x)", ".orderByDescending(|x| x)"])
                .to_string(),
            _ => ".distinct()".to_string(),
        }
    }

    /// Draws a candidate of template `t` (possibly a repeat; see
    /// [`Generator::next`]).
    fn candidate(&mut self, t: Template) -> Draw {
        let mut text = match t {
            // concat: outside QUIL, runs on steno-linq.
            Template::Concat { float } => {
                let (a, b) = if float { ("xs", "ys") } else { ("ns", "ms") };
                let c = self.ilit(-40, 900);
                let lit = if float {
                    Expr::litf(c as f64 / 10.0)
                } else {
                    Expr::liti(c)
                };
                let q = Query::source(a)
                    .where_(Expr::var("x").gt(lit), "x")
                    .concat(Query::source(b));
                let q = match self.rng.index(3) {
                    0 => q.count(),
                    1 => q.sum(),
                    _ => q.max(),
                };
                return Draw::Concat(Box::new(q.build()));
            }
            // join: canonicalizes into SelectMany and compiles.
            Template::Join => {
                let k = self.ilit(2, 9);
                let mut text = format!(
                    "ns.join(ms, |o| o % {k}, |i| i % {k}, |o, i| o * {} + i)",
                    self.ilit(2, 100)
                );
                if self.rng.index(2) == 0 {
                    text.push_str(&self.op(false));
                }
                text.push_str(self.pick(&[".sum()", ".count()", ".max()"]));
                text
            }
            // nested select_many over the inner source.
            Template::SelectMany => {
                let mut text = format!(
                    "xs{}.selectMany(|x| ys.select(|y| x * y + {}))",
                    self.op(true),
                    self.flit(0.0, 5.0)
                );
                text.push_str(self.pick(&[".sum()", ".count()", ".min()", ".max()"]));
                text
            }
            // grouping over integer keys.
            Template::Group { float } => {
                let mut text = format!("{}{}", source(float), self.op(float));
                let key = if float {
                    "x.floor()".to_string()
                } else {
                    format!("x % {}", self.ilit(3, 17))
                };
                text.push_str(&format!(".groupBy(|x| {key})"));
                match self.rng.index(3) {
                    0 => text.push_str(".select(|kv| (kv.0, kv.1.count()))"),
                    1 => text.push_str(".select(|kv| (kv.0, kv.1.sum()))"),
                    _ => {}
                }
                text
            }
            // plain pipelines of one to three operators.
            Template::Plain { float, terminal } => {
                let mut text = source(float).to_string();
                for _ in 0..1 + self.rng.index(3) {
                    text.push_str(&self.op(float));
                }
                text.push_str(terminal);
                text
            }
        };
        text.shrink_to_fit();
        Draw::Text(text)
    }

    /// The next distinct query whose reference execution succeeds, with
    /// its parsed form and reference value.
    fn next(
        &mut self,
        ctx: &DataContext,
        udfs: &UdfRegistry,
    ) -> Result<(Draw, QueryExpr, Value, f64), String> {
        let template = CYCLE[self.drawn % CYCLE.len()];
        for _ in 0..10_000 {
            let draw = self.candidate(template);
            let (key, q) = match &draw {
                Draw::Text(t) => (
                    t.clone(),
                    steno_syntax::parse_query(t)
                        .map(|(q, _)| q)
                        .map_err(|e| format!("generated text `{t}` does not parse: {e}"))?,
                ),
                Draw::Concat(q) => (q.to_string(), (**q).clone()),
            };
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            if !self.seen.insert(h.finish()) {
                continue;
            }
            // Queries whose reference fails (an empty min, say) are
            // redrawn: the workload holds only operations that succeed.
            let (reference, ns) = timed(|| steno_linq::interp::execute(&q, ctx, udfs));
            if let Ok(v) = reference {
                self.drawn += 1;
                return Ok((draw, q, v, ns));
            }
        }
        Err("generator could not draw a new valid query".into())
    }
}

fn engine() -> Steno {
    Steno::new()
        .with_verify(true)
        .with_cache_capacity(CACHE_CAPACITY)
}

/// Runs one drawn query through the facade; returns its value and
/// whether it took the `steno-linq` fallback (known for `concat` only;
/// text queries report `None`).
fn execute(
    engine: &Steno,
    draw: &Draw,
    ctx: &DataContext,
    udfs: &UdfRegistry,
) -> Result<(Value, Option<bool>), String> {
    match draw {
        Draw::Text(t) => engine
            .execute_text(t, ctx, udfs)
            .map(|v| (v, None))
            .map_err(|e| format!("`{t}`: {e}")),
        Draw::Concat(q) => engine
            .execute_traced(q, ctx, udfs)
            .map(|(v, path)| (v, Some(path == ExecutionPath::Fallback)))
            .map_err(|e| format!("`{q}`: {e}")),
    }
}

fn label(draw: &Draw) -> String {
    match draw {
        Draw::Text(t) => t.clone(),
        Draw::Concat(q) => q.to_string(),
    }
}

/// Context, engine and warm-up; returns the engine, the generator
/// positioned after the warm-up draws, and the timed set-up seconds.
fn setup(seed: u64) -> Result<(DataContext, Steno, Generator, f64), String> {
    let t0 = Instant::now();
    let ctx = context(seed);
    let engine = engine();
    let udfs = UdfRegistry::new();
    let mut gen = Generator::new(seed);
    let mut setup_ns = t0.elapsed().as_nanos() as f64;
    for _ in 0..WARMUP_QUERIES {
        let (draw, _, want, _) = gen.next(&ctx, &udfs)?;
        let (out, ns) = timed(|| execute(&engine, &draw, &ctx, &udfs));
        let (got, _) = out?;
        check::expect(&label(&draw), &got, &want)?;
        setup_ns += ns;
    }
    Ok((ctx, engine, gen, setup_ns / 1e9))
}

/// Samples of one measured phase.
#[derive(Default)]
struct Phase {
    op_ns: Vec<f64>,
    linq_ns: Vec<f64>,
    concat: u64,
    concat_fallback: u64,
    joins: u64,
}

/// What the traced phase records: spans, compile counters, and each
/// query with its staged compile.
type StagedTrace<'a> = (
    &'a mut Spans,
    &'a mut CompileCounts,
    &'a mut Vec<(QueryExpr, Staged)>,
);

/// One measured phase. With `trace`, each operation is followed by a
/// staged compile of the same query (spans and equivalence guard).
fn measure(
    seconds: f64,
    ctx: &DataContext,
    engine: &Steno,
    gen: &mut Generator,
    mut trace: Option<StagedTrace<'_>>,
) -> Result<Phase, String> {
    let udfs = UdfRegistry::new();
    let mut p = Phase {
        op_ns: Vec::with_capacity(SEEN_CAPACITY),
        linq_ns: Vec::with_capacity(SEEN_CAPACITY),
        ..Phase::default()
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        // Draw a batch (with references) first, then run it back to
        // back, as a service compiling a stream of new queries would:
        // the reference interpreter does not run between the timed
        // operations.
        let batch = (0..BATCH)
            .map(|_| gen.next(ctx, &udfs))
            .collect::<Result<Vec<_>, _>>()?;
        let mut outs = Vec::with_capacity(BATCH);
        for (draw, _, _, _) in &batch {
            let req = (p.op_ns.len() + outs.len()) as u64;
            let t = Instant::now();
            let out = match trace.as_mut() {
                Some((spans, _, _)) => spans.leaf("steno.execute_text", None, req, || {
                    execute(engine, draw, ctx, &udfs)
                }),
                None => execute(engine, draw, ctx, &udfs),
            };
            outs.push((out, t.elapsed().as_nanos() as f64));
        }
        for ((draw, q, want, linq_ns), (out, ns)) in batch.into_iter().zip(outs) {
            let req = p.op_ns.len() as u64;
            // A failed operation is a wrong answer: the reference succeeded.
            let (got, fell_back) = out?;
            check::expect(&label(&draw), &got, &want)?;
            p.op_ns.push(ns);
            p.linq_ns.push(linq_ns);
            match &draw {
                Draw::Concat(_) => {
                    p.concat += 1;
                    p.concat_fallback += u64::from(fell_back == Some(true));
                }
                Draw::Text(t) if t.contains(".join(") => p.joins += 1,
                Draw::Text(_) => {}
            }
            if let Some((spans, counts, staged)) = trace.as_mut() {
                let text = match &draw {
                    Draw::Text(t) => Some(t.as_str()),
                    Draw::Concat(_) => None,
                };
                let s = layers::staged_compile(
                    spans,
                    counts,
                    req,
                    text,
                    &q,
                    &SourceTypes::from(ctx),
                    &udfs,
                )?;
                if matches!(s, Staged::Unsupported) != matches!(draw, Draw::Concat(_)) {
                    return Err(format!(
                        "`{}`: fallback classification differs from the draw's shape",
                        label(&draw)
                    ));
                }
                staged.push((q, s));
            }
        }
    }
    Ok(p)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (ctx, engine, mut gen, first_setup) = setup(args.seed)?;
    if args.trace {
        return traced(args, &ctx, &engine, &mut gen, report);
    }
    let p = measure(args.seconds.as_secs_f64(), &ctx, &engine, &mut gen, None)?;
    let n = p.op_ns.len() as u64;
    report.attempted = n;
    // The warm-up is whole passes over `CYCLE`, so measured op `i` is of
    // template `i % CYCLE.len()`.
    let mut per_template = vec![Vec::new(); CYCLE.len()];
    for (i, &ns) in p.op_ns.iter().enumerate() {
        per_template[i % CYCLE.len()].push(ns);
    }
    let lat = case_latency(&per_template, TAIL_PCT);
    let busy_s: f64 = p.op_ns.iter().sum::<f64>() / 1e9;
    let stats = engine.detailed_cache_stats();
    report.detail(format!(
        "latency: geomean over the {} templates of each one's p50 and p{} ({} samples; at least {} beyond the tail in each template)",
        CYCLE.len(),
        lat.tail_pct,
        lat.samples,
        lat.beyond
    ));
    report.detail(format!(
        "plan cache: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    ));
    report.detail(format!(
        "draw: {} concat ({} took the steno-linq fallback), {} join, {} other",
        p.concat,
        p.concat_fallback,
        p.joins,
        n - p.concat - p.joins
    ));
    report.e2e("throughput_ops_per_s", n as f64 / busy_s, "1/s");
    report.e2e("latency_p50_us", lat.p50 / 1e3, "us");
    report.e2e("latency_tail_us", lat.tail / 1e3, "us");
    let per_elem: Vec<f64> = p.op_ns.iter().map(|ns| ns / CONTEXT as f64).collect();
    report.e2e("exec_ns_per_elem", geomean(&per_elem), "ns");
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    drop((ctx, engine, gen));
    let setup_s = setup_median(first_setup, SETUP_REPS, || setup(args.seed).map(|s| s.3))?;
    report.e2e("setup_s", setup_s, "s");
    report.extra("latency_tail_pct", lat.tail_pct, "%");
    report.extra(
        "cache_miss_frac",
        stats.misses as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    report.extra(
        "fallback_frac",
        p.concat_fallback as f64 / n as f64,
        "ratio",
    );
    Ok(report)
}

fn traced(
    args: &Args,
    ctx: &DataContext,
    engine: &Steno,
    gen: &mut Generator,
    mut report: Report,
) -> Result<Report, String> {
    let half = args.seconds.as_secs_f64() / 2.0;
    let mut spans = Spans::new(Instant::now());
    let mut counts = CompileCounts::default();
    let mut staged = Vec::new();
    let plain = measure(half, ctx, engine, gen, None)?;
    let traced = measure(
        half,
        ctx,
        engine,
        gen,
        Some((&mut spans, &mut counts, &mut staged)),
    )?;
    report.attempted = (plain.op_ns.len() + traced.op_ns.len()) as u64;

    let mut layers = LayerSet::new();
    layers.set(
        "bench.trace_overhead",
        median(&traced.op_ns) / median(&plain.op_ns),
    );
    let fallbacks = staged
        .iter()
        .filter(|(_, s)| matches!(s, Staged::Unsupported))
        .count();
    report.detail(format!(
        "stage-equivalence guard passed on all {} drawn queries ({} fell back to steno-linq)",
        staged.len(),
        fallbacks
    ));
    // Execution side: the most recent compiled plans (still cached).
    let udfs = UdfRegistry::new();
    let cases: Vec<PlanCase> = staged
        .iter()
        .rev()
        .filter_map(|(q, s)| match s {
            Staged::Compiled(plan) => Some(PlanCase {
                engine,
                query: q,
                plan: plan.clone(),
                ctx,
                udfs: &udfs,
                elements: CONTEXT as f64,
            }),
            Staged::Unsupported => None,
        })
        .take(EXEC_SAMPLE)
        .collect();
    // Cache counters of the workload itself, before the profiling below
    // adds hits of its own.
    let st = engine.detailed_cache_stats();
    layers.set(
        "steno-vm.cache_hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    layers.set("steno-vm.cache_evictions", st.evictions as f64);
    layers::exec_layers(&mut layers, &mut spans, &cases)?;
    let linq: Vec<f64> = traced
        .linq_ns
        .iter()
        .map(|ns| ns / CONTEXT as f64)
        .collect();
    layers.set("steno-linq.exec_ns_per_elem", geomean(&linq));

    let totals = spans.totals();
    layers::compile_layers(&mut layers, &counts, &totals);
    let mut parts: Vec<(&str, f64)> = [
        "steno-syntax.parse",
        "steno-quil.lower",
        "steno-quil.passes",
        "steno-opt.rewrite",
        "steno-codegen.generate",
        "steno-codegen.render",
        "steno-vm.assemble",
        "steno-vm.tapecheck",
        "steno-analysis.verify",
    ]
    .iter()
    .map(|&n| (n, layers::per_query_us(&totals, &counts, n)))
    .collect();
    parts.push(("steno-vm.run", layers::mean_us(&totals, "bench.plan_run")));
    layers::shares(&mut report, &parts);
    let path = spans.write(&format!("spans-compile_cold-{}.jsonl", args.seed))?;
    report.detail(format!("spans written to {path}"));
    layers.into_report(&mut report);
    Ok(report)
}
