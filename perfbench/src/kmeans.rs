//! `kmeans_cluster`: Fig. 14 k-means iterations on the simulated
//! cluster, one thread driving, closed loop.
//!
//! Each operation is one iteration: the assignment query through
//! `steno_cluster::execute_distributed` with `VertexEngine::Steno`
//! (workers = the machine's available parallelism, eight partitions),
//! then the coordinator-side centroid update. Two point dimensions alternate
//! with the total input held at 2^17 doubles: 4, where the generated
//! loops dominate, and 64, where the opaque distance UDF does. Every
//! iteration is checked against a hand-written assignment step.

use std::sync::Arc;
use std::time::Instant;

use bench::kmeans::{
    assignment_query, centroid_column, clustered_points, kmeans_udfs, recompute_centroids,
};
use steno::Steno;
use steno_cluster::{
    execute_distributed, ClusterSpec, DistributedCollection, JobReport, VertexEngine,
};
use steno_expr::{Column, DataContext, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;

use crate::check;
use crate::layers::{self, CompileCounts, LayerSet, PlanCase};
use crate::report::Report;
use crate::stats::{
    case_latency, geomean, mean, median, peak_rss_mib, round_rate, setup_median, timed,
};
use crate::trace::Spans;
use crate::Args;

const DIMS: [usize; 2] = [4, 64];
/// Doubles per dimension setting (points × dim).
const TOTAL: usize = 1 << 17;
const K: usize = 10;
const PARTITIONS: usize = 8;
const WARMUP_ITERS: usize = 2;
const SETUP_REPS: usize = 5;
/// Tail percentile per dim: at 20 s each dim runs 100+ iterations.
const TAIL_PCT: f64 = 90.0;

fn spec() -> ClusterSpec {
    ClusterSpec {
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
    }
}

/// One dimension setting: its points, UDFs and current centroids.
struct Dim {
    dim: usize,
    points: Vec<f64>,
    input: DistributedCollection,
    udfs: UdfRegistry,
    centroids: Vec<Vec<f64>>,
}

impl Dim {
    fn new(dim: usize, seed: u64) -> Dim {
        let n = TOTAL / dim;
        let points = clustered_points(n, dim, K, seed ^ dim as u64);
        let centroids = (0..K)
            .map(|i| points[i * dim..(i + 1) * dim].to_vec())
            .collect();
        Dim {
            dim,
            input: DistributedCollection::from_rows("points", points.clone(), dim, PARTITIONS),
            points,
            udfs: kmeans_udfs(dim),
            centroids,
        }
    }

    fn broadcast(&self) -> DataContext {
        DataContext::new().with_source("centroids", centroid_column(&self.centroids))
    }
}

/// The hand-written assignment step: per cluster `(count, sum)`, with
/// the query's nearest-centroid rule (first strictly smaller distance).
fn hand_step(d: &Dim) -> Vec<(i64, Vec<f64>)> {
    let mut acc: Vec<(i64, Vec<f64>)> = vec![(0, vec![0.0; d.dim]); K];
    for p in d.points.chunks_exact(d.dim) {
        let mut best = (usize::MAX, f64::INFINITY);
        for (i, c) in d.centroids.iter().enumerate() {
            let mut s = 0.0;
            for j in 0..d.dim {
                let t = p[j] - c[j];
                s += t * t;
            }
            if s < best.1 {
                best = (i, s);
            }
        }
        let slot = &mut acc[best.0];
        slot.0 += 1;
        for (sum, x) in slot.1.iter_mut().zip(p) {
            *sum += x;
        }
    }
    acc
}

/// Checks a distributed result against the hand step: cluster counts
/// exactly, point sums to the float tolerance.
fn agree(what: &str, got: &Value, want: &[(i64, Vec<f64>)]) -> Result<(), String> {
    let rows = got
        .as_seq()
        .ok_or_else(|| format!("{what}: result is not a sequence"))?;
    let mut seen = [false; K];
    for row in rows.iter() {
        let parsed = row.as_pair().and_then(|(k, agg)| {
            let (sum, count) = agg.as_pair()?;
            Some((k.as_i64()?, count.as_i64()?, sum.as_row()?.to_vec()))
        });
        let (id, count, sum) =
            parsed.ok_or_else(|| format!("{what}: malformed row {}", check::brief(row)))?;
        let want_row = usize::try_from(id)
            .ok()
            .and_then(|i| want.get(i))
            .ok_or_else(|| format!("{what}: cluster id {id}"))?;
        seen[id as usize] = true;
        let sums_ok = sum.len() == want_row.1.len()
            && sum
                .iter()
                .zip(&want_row.1)
                .all(|(a, b)| check::f64_close(*a, *b));
        if count != want_row.0 || !sums_ok {
            return Err(format!(
                "reference mismatch on {what}: cluster {id} has {count} points (hand loop {})",
                want_row.0
            ));
        }
    }
    let missing = want.iter().enumerate().any(|(i, w)| w.0 > 0 && !seen[i]);
    if missing {
        return Err(format!(
            "reference mismatch on {what}: a non-empty cluster is missing"
        ));
    }
    Ok(())
}

fn setup(seed: u64) -> Result<(Vec<Dim>, QueryExpr, f64), String> {
    let t0 = Instant::now();
    let dims: Vec<Dim> = DIMS.iter().map(|&d| Dim::new(d, seed)).collect();
    let q = assignment_query();
    let mut setup_s = t0.elapsed().as_secs_f64();
    let mut dims = dims;
    for d in &mut dims {
        for _ in 0..WARMUP_ITERS {
            let want = hand_step(d);
            let t = Instant::now();
            let (v, _) = iterate(d, &q, VertexEngine::Steno)?;
            setup_s += t.elapsed().as_secs_f64();
            agree(&format!("warm-up iteration at dim {}", d.dim), &v, &want)?;
        }
    }
    Ok((dims, q, setup_s))
}

/// One iteration: the distributed assignment query, then the centroid
/// update. Returns the query's result and the job report.
fn iterate(d: &mut Dim, q: &QueryExpr, engine: VertexEngine) -> Result<(Value, JobReport), String> {
    let (v, report) = execute_distributed(q, &d.input, &d.broadcast(), &d.udfs, &spec(), engine)
        .map_err(|e| format!("k-means iteration at dim {}: {e}", d.dim))?;
    d.centroids = recompute_centroids(&v, &d.centroids);
    Ok((v, report))
}

/// Per-dimension samples of one measured phase.
struct Phase {
    steno_ns: Vec<Vec<f64>>,
    hand_ns: Vec<Vec<f64>>,
    reports: Vec<JobReport>,
}

impl Phase {
    /// Iterations run (every one checked).
    fn ops(&self) -> u64 {
        self.steno_ns.iter().map(Vec::len).sum::<usize>() as u64
    }
}

fn measure(
    dims: &mut [Dim],
    q: &QueryExpr,
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Result<Phase, String> {
    let mut p = Phase {
        steno_ns: vec![Vec::new(); dims.len()],
        hand_ns: vec![Vec::new(); dims.len()],
        reports: Vec::new(),
    };
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for (k, d) in dims.iter_mut().enumerate() {
            let (want, hand_ns) = timed(|| hand_step(d));
            p.hand_ns[k].push(hand_ns);
            let t = Instant::now();
            let (v, report) = match spans.as_deref_mut() {
                Some(sp) => {
                    let root = sp.begin("bench.kmeans_iteration", None, req);
                    let out = iterate(d, q, VertexEngine::Steno);
                    sp.end(root);
                    if let Ok((_, r)) = &out {
                        sp.record(
                            "steno-cluster.compile",
                            root,
                            r.compile_time.as_nanos() as u64,
                        );
                        sp.record("steno-cluster.map", root, r.map_wall.as_nanos() as u64);
                        sp.record(
                            "steno-cluster.reduce",
                            root,
                            r.reduce_wall.as_nanos() as u64,
                        );
                    }
                    out?
                }
                None => iterate(d, q, VertexEngine::Steno)?,
            };
            let ns = t.elapsed().as_nanos() as f64;
            req += 1;
            agree(&format!("iteration at dim {}", d.dim), &v, &want)?;
            p.steno_ns[k].push(ns);
            p.reports.push(report);
        }
    }
    Ok(p)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut dims, q, first_setup) = setup(args.seed)?;
    if args.trace {
        return traced(args, &mut dims, &q, report);
    }
    let p = measure(&mut dims, &q, args.seconds.as_secs_f64(), None)?;
    report.attempted = p.ops();
    let mut per_elem = Vec::new();
    let mut vs_hand = Vec::new();
    for (k, d) in dims.iter().enumerate() {
        let m = median(&p.steno_ns[k]);
        let h = median(&p.hand_ns[k]);
        per_elem.push(m / TOTAL as f64);
        vs_hand.push(m / h);
        report.detail(format!(
            "dim {:>3}: {:>8.3} ns/double  hand {:>8.3} ns/double  steno/hand {:>5.2}  {} iterations",
            d.dim,
            m / TOTAL as f64,
            h / TOTAL as f64,
            m / h,
            p.steno_ns[k].len()
        ));
    }
    let lat = case_latency(&p.steno_ns, TAIL_PCT);
    report.detail(format!(
        "latency: geomean over cases of each case's p50 and p{} ({} samples; at least {} beyond the tail in each case); {} workers, {PARTITIONS} partitions",
        lat.tail_pct,
        lat.samples,
        lat.beyond,
        spec().workers
    ));
    report.e2e("throughput_ops_per_s", round_rate(&p.steno_ns), "1/s");
    report.e2e("latency_p50_us", lat.p50 / 1e3, "us");
    report.e2e("latency_tail_us", lat.tail / 1e3, "us");
    report.e2e("exec_ns_per_elem", geomean(&per_elem), "ns");
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    drop(dims);
    let setup_s = setup_median(first_setup, SETUP_REPS, || setup(args.seed).map(|s| s.2))?;
    report.e2e("setup_s", setup_s, "s");
    report.extra("exec_vs_hand", geomean(&vs_hand), "ratio");
    report.extra("latency_tail_pct", lat.tail_pct, "%");
    Ok(report)
}

fn traced(
    args: &Args,
    dims: &mut [Dim],
    q: &QueryExpr,
    mut report: Report,
) -> Result<Report, String> {
    let half = args.seconds.as_secs_f64() / 2.0;
    let mut spans = Spans::new(Instant::now());
    let plain = measure(dims, q, half, None)?;
    let traced = measure(dims, q, half, Some(&mut spans))?;
    report.attempted = plain.ops() + traced.ops();

    let mut layers = LayerSet::new();
    let ratios: Vec<f64> = (0..dims.len())
        .map(|k| median(&traced.steno_ns[k]) / median(&plain.steno_ns[k]))
        .collect();
    layers.set("bench.trace_overhead", geomean(&ratios));
    let ms = |f: fn(&JobReport) -> f64| mean(&traced.reports.iter().map(f).collect::<Vec<_>>());
    layers.set(
        "steno-cluster.map_ms",
        ms(|r| r.map_wall.as_secs_f64() * 1e3),
    );
    layers.set(
        "steno-cluster.reduce_ms",
        ms(|r| r.reduce_wall.as_secs_f64() * 1e3),
    );
    layers.set(
        "steno-cluster.vertex_compile_ms",
        ms(|r| r.compile_time.as_secs_f64() * 1e3),
    );
    layers.set(
        "steno-cluster.retries",
        traced.reports.iter().map(|r| r.retries as f64).sum(),
    );

    // The reference engine: one LINQ-vertex iteration per dimension,
    // checked against the hand step like the Steno ones.
    let mut linq = Vec::new();
    for d in dims.iter_mut() {
        let want = hand_step(d);
        let ((v, _), ns) = {
            let (out, ns) = timed(|| iterate(d, q, VertexEngine::Linq));
            (out?, ns)
        };
        agree(
            &format!("LINQ-vertex iteration at dim {}", d.dim),
            &v,
            &want,
        )?;
        linq.push(ns / TOTAL as f64);
    }
    layers.set("steno-linq.exec_ns_per_elem", geomean(&linq));

    // Compile and execution layers: the iteration query compiled stage
    // by stage and run on one node over each dimension's points.
    let mut counts = CompileCounts::default();
    let engine = Steno::new();
    let ctxs: Vec<DataContext> = dims
        .iter()
        .map(|d| {
            d.broadcast()
                .with_source("points", Column::from_rows(d.points.clone(), d.dim))
        })
        .collect();
    let mut cases = Vec::new();
    for (k, (d, ctx)) in dims.iter().zip(&ctxs).enumerate() {
        let staged = layers::staged_compile(
            &mut spans,
            &mut counts,
            k as u64,
            None,
            q,
            &SourceTypes::from(ctx),
            &d.udfs,
        )?;
        if let layers::Staged::Compiled(plan) = staged {
            let v = engine
                .execute(q, ctx, &d.udfs)
                .map_err(|e| format!("single-node iteration: {e}"))?;
            agree(
                &format!("single-node iteration at dim {}", d.dim),
                &v,
                &hand_step(d),
            )?;
            cases.push(PlanCase {
                engine: &engine,
                query: q,
                plan: Arc::clone(&plan),
                ctx,
                udfs: &d.udfs,
                elements: TOTAL as f64,
            });
        }
    }
    layers::exec_layers(&mut layers, &mut spans, &cases)?;
    let totals = spans.totals();
    layers::compile_layers(&mut layers, &counts, &totals);
    let per_iter = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns / traced.ops().max(1) as f64 / 1e3)
    };
    layers::shares(
        &mut report,
        &[
            ("steno-cluster.compile", per_iter("steno-cluster.compile")),
            ("steno-cluster.map", per_iter("steno-cluster.map")),
            ("steno-cluster.reduce", per_iter("steno-cluster.reduce")),
            (
                "coordinator (recompute, exchange)",
                per_iter("bench.kmeans_iteration"),
            ),
        ],
    );
    let path = spans.write(&format!("spans-kmeans_cluster-{}.jsonl", args.seed))?;
    report.detail(format!("spans written to {path}"));
    layers.into_report(&mut report);
    Ok(report)
}
