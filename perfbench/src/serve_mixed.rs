//! `serve_mixed`: a `steno-serve` `QueryService` under a closed loop
//! with a fixed window of requests in flight.
//!
//! Default engine settings (verify off in release, no flight recorder),
//! `workers` = the machine's available parallelism, four tenants. One
//! generator thread (this one) keeps `WINDOW` requests in flight: it
//! waits for the oldest, checks its answer, and submits the next. The
//! window is four times the worker count, so the workers always find
//! queued work and never sleep; a worker's wake-up delay then no longer
//! sets the latency. Each request is timed from its submission, and the
//! figures are medians over blocks of consecutive requests. Queries
//! come from a zipfian pool four times the plan-cache capacity, so hits,
//! misses and evictions all occur, and compiles (misses) compete with
//! executions (hits) for the same workers. The window stays below each
//! tenant's queue bound, so nothing is shed. Every answer is checked
//! against a hand loop over the tenant's data.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use steno::Steno;
use steno_expr::{DataContext, UdfRegistry, Value};
use steno_obs::MemoryCollector;
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_serve::loadgen::{query_pool, tenant_context};
use steno_serve::{QueryRequest, QueryService, QueryTicket, ServeConfig, SplitMix64, Zipf};

use crate::check;
use crate::layers::{self, CompileCounts, LayerSet, PlanCase};
use crate::report::Report;
use crate::stats::{geomean, median, peak_rss_mib, setup_median, timed};
use crate::trace::Spans;
use crate::Args;

const TENANTS: usize = 4;
/// Elements in each tenant's context.
const ELEMENTS: usize = 4096;
const POOL: usize = 128;
const CACHE_CAPACITY: usize = 32;
const ZIPF_S: f64 = 1.1;
/// Requests in flight per worker.
const WINDOW_PER_WORKER: usize = 4;
/// Requests run through the window before measuring.
const WARMUP_REQUESTS: usize = 20_000;
const SETUP_REPS: usize = 5;
/// Consecutive requests summarized together. A 20 s run holds 25 or
/// more blocks.
const BLOCK: usize = 16_384;
/// Tail percentile within a block. Higher percentiles follow the host's
/// scheduling of three threads on two vCPUs, not the service: on the
/// reference VM a block's p99 ranged from 0.45 to 9 ms between seconds
/// of one run, and the median over blocks of p99 still moved by half
/// between identical runs, against under a tenth for p90.
const TAIL_PCT: f64 = 90.0;
/// Pool queries the traced run compiles stage by stage and profiles.
const LAYER_SAMPLE: usize = 16;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn window() -> usize {
    WINDOW_PER_WORKER * workers()
}

/// The pool's `i`-th query is `xs.where(x > i).select(x * x).sum()`.
fn hand(ctx_data: &[f64], i: usize) -> Value {
    let c = i as f64;
    let mut s = 0.0;
    for &x in ctx_data {
        if x > c {
            s += x * x;
        }
    }
    Value::F64(s)
}

struct Setup {
    service: QueryService,
    collector: Option<Arc<MemoryCollector>>,
    tenants: Vec<(String, DataContext)>,
    pool: Vec<QueryExpr>,
    zipf: Zipf,
    /// `reference[tenant][query]`.
    reference: Vec<Vec<Value>>,
    /// Nanoseconds `steno_linq::interp::execute` took per element, on a
    /// sample of pool queries.
    linq_ns_per_elem: Vec<f64>,
}

/// Starts the service and warms it up through the window. Returns the
/// set-up and the seconds its timed part took (the references are the
/// benchmark's checking machinery and are computed outside it).
fn setup(seed: u64, traced: bool) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let collector = traced.then(|| Arc::new(MemoryCollector::new()));
    let mut engine = Steno::new().with_cache_capacity(CACHE_CAPACITY);
    if let Some(c) = &collector {
        engine = engine.with_collector(c.clone());
    }
    let cfg = ServeConfig {
        workers: workers(),
        ..ServeConfig::default()
    };
    if window() > cfg.queue_depth {
        return Err(format!(
            "window {} exceeds the per-tenant queue depth {}: requests would be shed",
            window(),
            cfg.queue_depth
        ));
    }
    let service = QueryService::start(engine, cfg);
    let tenants: Vec<(String, DataContext)> = (0..TENANTS)
        .map(|t| {
            (
                format!("tenant-{t}"),
                tenant_context(ELEMENTS, seed ^ (t as u64 + 1)),
            )
        })
        .collect();
    let pool = query_pool(POOL);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let mut setup_s = t0.elapsed().as_secs_f64();

    // References: a hand loop per (tenant, query).
    let udfs = UdfRegistry::new();
    let mut reference = Vec::new();
    let mut linq = Vec::new();
    for (_, ctx) in &tenants {
        let col = ctx.source("xs").ok_or("tenant context without xs")?;
        let data: Vec<f64> = col.to_values().iter().filter_map(Value::as_f64).collect();
        reference.push((0..POOL).map(|i| hand(&data, i)).collect::<Vec<_>>());
        for q in pool.iter().take(4) {
            let (v, ns) = timed(|| steno_linq::interp::execute(q, ctx, &udfs));
            v.map_err(|e| format!("reference interp `{q}`: {e}"))?;
            linq.push(ns / ELEMENTS as f64);
        }
    }
    let s = Setup {
        service,
        collector,
        tenants,
        pool,
        zipf,
        reference,
        linq_ns_per_elem: linq,
    };
    let t1 = Instant::now();
    let mut rng = SplitMix64::new(seed ^ 0x3A3A);
    closed_loop(&s, &mut rng, Stop::Requests(WARMUP_REQUESTS), None)?;
    setup_s += t1.elapsed().as_secs_f64();
    Ok((s, setup_s))
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    Requests(usize),
    Seconds(f64),
}

/// One block of `BLOCK` consecutive answers.
struct Block {
    /// Answers per second over the block.
    rate: f64,
    /// Median and `TAIL_PCT` percentile of the block's latencies, from
    /// each request's submission to its answer, nanoseconds.
    p50_ns: f64,
    tail_ns: f64,
}

/// The nearest-rank percentile `p` of `xs`, reordering `xs` in place.
fn select_pct(xs: &mut [f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    let i = rank.clamp(1, xs.len()) - 1;
    *xs.select_nth_unstable_by(i, f64::total_cmp).1
}

/// What one closed loop measured.
struct Run {
    /// Every full block, in order. A run's figures are medians over
    /// its blocks, so a host hiccup of a few seconds does not move
    /// them, and the samples kept in memory do not grow with the run's
    /// throughput.
    blocks: Vec<Block>,
    completed: usize,
    /// Total time spent in `QueryService::submit`.
    admit_ns: f64,
    /// Total over the requests after the first window of the time from
    /// the oldest request's answer (the slot freeing) to the next
    /// submission, and how many such refills there were.
    refill_ns: f64,
    refills: usize,
}

impl Run {
    fn median(&self, f: impl Fn(&Block) -> f64) -> f64 {
        median(&self.blocks.iter().map(f).collect::<Vec<_>>())
    }
}

struct InFlight {
    ticket: QueryTicket,
    sent: Instant,
    tenant: usize,
    query: usize,
}

/// Keeps `window()` requests in flight until `stop`, then drains the
/// window. With `spans`, records a `steno-serve.submit` and a
/// `steno-serve.wait` span per request.
fn closed_loop(
    s: &Setup,
    rng: &mut SplitMix64,
    stop: Stop,
    mut spans: Option<&mut Spans>,
) -> Result<Run, String> {
    let udfs = UdfRegistry::new();
    let window = window();
    let mut flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut run = Run {
        blocks: Vec::new(),
        completed: 0,
        admit_ns: 0.0,
        refill_ns: 0.0,
        refills: 0,
    };
    let start = Instant::now();
    let mut submitted = 0usize;
    let mut freed: Option<Instant> = None;
    let mut block: Vec<f64> = Vec::with_capacity(BLOCK);
    let mut block_start = start;
    loop {
        let more = match stop {
            Stop::Requests(n) => submitted < n,
            Stop::Seconds(secs) => start.elapsed().as_secs_f64() < secs,
        };
        if more && flight.len() < window {
            let tenant = rng.next_below(TENANTS as u64) as usize;
            let query = s.zipf.sample(rng);
            let (name, ctx) = &s.tenants[tenant];
            let req = QueryRequest::new(name, s.pool[query].clone(), ctx.clone(), udfs.clone());
            if let Some(at) = freed.take() {
                run.refill_ns += at.elapsed().as_nanos() as f64;
                run.refills += 1;
            }
            let sent = Instant::now();
            let res = match spans.as_deref_mut() {
                Some(sp) => sp.leaf("steno-serve.submit", None, submitted as u64, || {
                    s.service.submit(req)
                }),
                None => s.service.submit(req),
            };
            run.admit_ns += sent.elapsed().as_nanos() as f64;
            let ticket = res.map_err(|e| format!("submit: {e}"))?;
            flight.push_back(InFlight {
                ticket,
                sent,
                tenant,
                query,
            });
            submitted += 1;
            continue;
        }
        let Some(f) = flight.pop_front() else {
            break;
        };
        let result = match spans.as_deref_mut() {
            Some(sp) => sp.leaf("steno-serve.wait", None, run.completed as u64, || {
                f.ticket.wait()
            }),
            None => f.ticket.wait(),
        };
        let now = Instant::now();
        run.completed += 1;
        block.push((now - f.sent).as_nanos() as f64);
        if block.len() == BLOCK {
            run.blocks.push(Block {
                rate: BLOCK as f64 / (now - block_start).as_secs_f64(),
                p50_ns: select_pct(&mut block, 50.0),
                tail_ns: select_pct(&mut block, TAIL_PCT),
            });
            block.clear();
            block_start = now;
        }
        freed = Some(now);
        let what = || format!("`{}` for tenant {}", s.pool[f.query], f.tenant);
        // Nothing is shed and no deadline is near: any error is a failure.
        let v = result.map_err(|e| format!("{}: {e}", what()))?;
        check::expect(&what(), &v, &s.reference[f.tenant][f.query])?;
    }
    Ok(run)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (s, first_setup) = setup(args.seed, false)?;
    if args.trace {
        return traced(args, s, report);
    }
    let before = s.service.engine().detailed_cache_stats();
    let mut rng = SplitMix64::new(args.seed ^ 0x0BE1);
    let r = closed_loop(
        &s,
        &mut rng,
        Stop::Seconds(args.seconds.as_secs_f64()),
        None,
    )?;
    if r.blocks.is_empty() {
        return Err(format!("the run completed fewer than {BLOCK} requests"));
    }
    report.attempted = r.completed as u64;
    let after = s.service.engine().detailed_cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let evictions = after.evictions - before.evictions;
    let throughput = r.median(|b| b.rate);
    report.detail(format!(
        "closed loop, {} requests in flight on {} workers; medians over {} blocks of {BLOCK} \
         requests of each block's rate, p50 and p{TAIL_PCT} ({} beyond it per block)",
        window(),
        workers(),
        r.blocks.len(),
        BLOCK - (TAIL_PCT / 100.0 * BLOCK as f64).ceil() as usize
    ));
    report.detail(format!(
        "plan cache: {hits} hits, {misses} misses, {evictions} evictions \
         (capacity {CACHE_CAPACITY}, pool {POOL})"
    ));
    report.e2e("throughput_ops_per_s", throughput, "1/s");
    report.e2e("latency_p50_us", r.median(|b| b.p50_ns) / 1e3, "us");
    report.e2e("latency_tail_us", r.median(|b| b.tail_ns) / 1e3, "us");
    // Worker time per request, per tenant element.
    report.e2e(
        "exec_ns_per_elem",
        workers() as f64 * 1e9 / throughput / ELEMENTS as f64,
        "ns",
    );
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    drop(s);
    let setup_s = setup_median(first_setup, SETUP_REPS, || {
        setup(args.seed, false).map(|(_, t)| t)
    })?;
    report.e2e("setup_s", setup_s, "s");
    report.extra("latency_tail_pct", TAIL_PCT, "%");
    report.extra(
        "cache_miss_frac",
        misses as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    // The window never exceeds a tenant's queue bound and every error
    // fails the run, so both are 0 on a completed run.
    report.extra("shed_frac", 0.0, "ratio");
    report.extra("failed_frac", 0.0, "ratio");
    Ok(report)
}

fn hist_mean_us(col: &MemoryCollector, name: &str) -> f64 {
    col.snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .and_then(|h| h.mean())
        .map_or(0.0, |ns| ns / 1e3)
}

fn traced(args: &Args, plain: Setup, mut report: Report) -> Result<Report, String> {
    let half = Stop::Seconds(args.seconds.as_secs_f64() / 2.0);
    let base = closed_loop(&plain, &mut SplitMix64::new(args.seed ^ 0x0BE1), half, None)?;
    drop(plain);
    let (s, _) = setup(args.seed, true)?;
    let mut spans = Spans::new(Instant::now());
    let r = closed_loop(
        &s,
        &mut SplitMix64::new(args.seed ^ 0x0BE1),
        half,
        Some(&mut spans),
    )?;
    report.attempted = (base.completed + r.completed) as u64;

    let col = s
        .collector
        .as_ref()
        .ok_or("traced set-up without a collector")?;
    let mut layers = LayerSet::new();
    layers.set(
        "bench.trace_overhead",
        r.median(|b| b.p50_ns) / base.median(|b| b.p50_ns),
    );
    layers.set(
        "steno-serve.admit_us",
        r.admit_ns / r.completed as f64 / 1e3,
    );
    layers.set(
        "steno-serve.queue_wait_us",
        hist_mean_us(col, "serve.queue_wait_ns"),
    );
    layers.set("steno-serve.exec_us", hist_mean_us(col, "serve.exec_ns"));
    layers.set(
        "steno-serve.retries",
        col.counter_value("serve.retries") as f64,
    );
    layers.set(
        "steno-serve.degraded_compiles",
        col.counter_value("serve.degraded_compiles") as f64,
    );
    layers.set(
        "steno-serve.breaker_opens",
        s.service.breaker().times_opened() as f64,
    );
    layers.set(
        "steno-serve.generator_lag_us",
        r.refill_ns / r.refills.max(1) as f64 / 1e3,
    );
    let cache = s.service.engine().detailed_cache_stats();
    layers.set(
        "steno-vm.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    layers.set("steno-vm.cache_evictions", cache.evictions as f64);
    layers.set("steno-linq.exec_ns_per_elem", geomean(&s.linq_ns_per_elem));
    report.detail(format!(
        "plan cache: {} hits, {} misses, {} evictions; {} steno-linq fallbacks",
        cache.hits,
        cache.misses,
        cache.evictions,
        col.counter_value("steno.query.fallback")
    ));

    // Compile and execution layers on the hottest pool queries.
    let udfs = UdfRegistry::new();
    let ctx = &s.tenants[0].1;
    let mut counts = CompileCounts::default();
    let engine = Steno::new();
    let mut cases = Vec::new();
    for (i, q) in s.pool.iter().take(LAYER_SAMPLE).enumerate() {
        let text = q.to_string();
        let round_trips = steno_syntax::parse_query(&text).is_ok_and(|(p, _)| &p == q);
        let staged = layers::staged_compile(
            &mut spans,
            &mut counts,
            i as u64,
            round_trips.then_some(text.as_str()),
            q,
            &SourceTypes::from(ctx),
            &udfs,
        )?;
        if let layers::Staged::Compiled(plan) = staged {
            let v = engine
                .execute(q, ctx, &udfs)
                .map_err(|e| format!("`{q}`: {e}"))?;
            check::expect(&format!("`{q}`"), &v, &s.reference[0][i])?;
            cases.push(PlanCase {
                engine: &engine,
                query: q,
                plan,
                ctx,
                udfs: &udfs,
                elements: ELEMENTS as f64,
            });
        }
    }
    layers::exec_layers(&mut layers, &mut spans, &cases)?;
    let totals = spans.totals();
    layers::compile_layers(&mut layers, &counts, &totals);
    layers::shares(
        &mut report,
        &[
            (
                "steno-serve.submit",
                layers::mean_us(&totals, "steno-serve.submit"),
            ),
            (
                "steno-serve.queue_wait",
                hist_mean_us(col, "serve.queue_wait_ns"),
            ),
            ("steno-serve.exec", hist_mean_us(col, "serve.exec_ns")),
        ],
    );
    let path = spans.write(&format!("spans-serve_mixed-{}.jsonl", args.seed))?;
    report.detail(format!("spans written to {path}"));
    layers.into_report(&mut report);
    Ok(report)
}
