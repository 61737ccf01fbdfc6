//! Per-layer measurement shared by the workloads' traced runs.
//!
//! * [`staged_compile`] calls the compile stages one by one, in the order
//!   `CompiledQuery::compile_tuned_feedback` uses, with a span around
//!   each, then runs the tape check and the plan verifier; its
//!   stage-equivalence guard fails the run unless the result matches
//!   what one `CompiledQuery::compile` call produces.
//! * [`exec_layers`] times `CompiledQuery::run` (the production path)
//!   per plan, takes `QueryProfile` counters from a separate
//!   `run_profiled` pass, and times the facade's dispatch overhead (the
//!   plan-cache lookup `Steno::execute` makes before running a plan).
//!
//! [`LayerSet`] holds every per-layer metric name the benchmark reports;
//! a workload that does not exercise a layer reports 0 for it.

use std::collections::BTreeMap;
use std::sync::Arc;

use steno::Steno;
use steno_codegen::{generate, render_rust};
use steno_expr::typecheck::TyEnv;
use steno_expr::{DataContext, UdfRegistry, Value};
use steno_query::typing::SourceTypes;
use steno_query::QueryExpr;
use steno_quil::lower::{lower_with, LowerError, LowerOptions};
use steno_quil::passes;
use steno_vm::{CompiledQuery, LoopTier};

use crate::report::Report;
use crate::stats::{geomean, median, timed};
use crate::trace::{NameTotals, SpanId, Spans};

/// Every per-layer metric of the result line, in report order, with its
/// unit. The names are `<crate>.<metric>` for the layer they measure.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("steno-syntax.parse_us", "us"),
    ("steno-quil.lower_us", "us"),
    ("steno-quil.passes_us", "us"),
    ("steno-quil.chain_ops", "count"),
    ("steno-opt.rewrite_us", "us"),
    ("steno-opt.rewrites_applied", "count"),
    ("steno-codegen.generate_us", "us"),
    ("steno-codegen.render_us", "us"),
    ("steno-codegen.imp_stmts", "count"),
    ("steno-vm.assemble_us", "us"),
    ("steno-vm.tape_instrs", "count"),
    ("steno-vm.tapecheck_us", "us"),
    ("steno-vm.tapecheck_obligations", "count"),
    ("steno-analysis.verify_us", "us"),
    ("steno.compile_us", "us"),
    ("bench.stage_sum_over_compile", "ratio"),
    ("steno-vm.run_ns_per_elem.batch", "ns"),
    ("steno-vm.run_ns_per_elem.fused", "ns"),
    ("steno-vm.run_ns_per_elem.scalar", "ns"),
    ("steno-vm.loops_batch", "count"),
    ("steno-vm.loops_fused", "count"),
    ("steno-vm.loops_scalar", "count"),
    ("steno-vm.fused_kernels", "count"),
    ("steno-vm.batches", "count"),
    ("steno-vm.selected_density", "ratio"),
    ("steno-vm.scalar_instrs_per_elem", "count"),
    ("steno-vm.udf_calls", "count"),
    ("steno-vm.profiled_over_run", "ratio"),
    ("steno-opt.reopts", "count"),
    ("steno.dispatch_us", "us"),
    ("steno-vm.cache_hit_ratio", "ratio"),
    ("steno-vm.cache_evictions", "count"),
    ("steno-serve.admit_us", "us"),
    ("steno-serve.queue_wait_us", "us"),
    ("steno-serve.exec_us", "us"),
    ("steno-serve.retries", "count"),
    ("steno-serve.degraded_compiles", "count"),
    ("steno-serve.breaker_opens", "count"),
    ("steno-serve.generator_lag_us", "us"),
    ("steno-cluster.map_ms", "ms"),
    ("steno-cluster.reduce_ms", "ms"),
    ("steno-cluster.vertex_compile_ms", "ms"),
    ("steno-cluster.retries", "count"),
    ("steno-linq.exec_ns_per_elem", "ns"),
    ("bench.trace_overhead", "ratio"),
];

/// The per-layer values of one traced run, every name present.
pub struct LayerSet {
    values: BTreeMap<&'static str, f64>,
}

impl LayerSet {
    pub fn new() -> LayerSet {
        LayerSet {
            values: LAYER_METRICS.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.contains_key(name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Moves every value into `report`, in declaration order.
    pub fn into_report(self, report: &mut Report) {
        for (name, unit) in LAYER_METRICS {
            report.layer(name, self.values[name], unit);
        }
    }
}

/// What a compile of one query produced.
pub enum Staged {
    /// Lowering refused the shape; the facade runs it on `steno-linq`.
    Unsupported,
    /// The plan, as one `CompiledQuery::compile` call produced it (the
    /// staged result was checked equal to it).
    Compiled(Arc<CompiledQuery>),
}

fn loop_tiers(plans: &[steno_vm::LoopPlan]) -> Vec<LoopTier> {
    plans.iter().map(|p| p.tier).collect()
}

/// Runs the compile pipeline stage by stage under spans, then the tape
/// check and the plan verifier, and checks the outcome against one
/// `CompiledQuery::compile` call.
///
/// Span names are the `LAYER_METRICS` stage names without their unit
/// suffix; every stage span is a child of one `bench.staged_compile`.
pub fn staged_compile(
    spans: &mut Spans,
    counts: &mut CompileCounts,
    req: u64,
    text: Option<&str>,
    q: &QueryExpr,
    sources: &SourceTypes,
    udfs: &UdfRegistry,
) -> Result<Staged, String> {
    let root = spans.begin("bench.staged_compile", None, req);
    let out = staged_inner(spans, counts, root, req, text, q, sources, udfs);
    spans.end(root);
    out
}

#[allow(clippy::too_many_arguments)]
fn staged_inner(
    spans: &mut Spans,
    counts: &mut CompileCounts,
    root: SpanId,
    req: u64,
    text: Option<&str>,
    q: &QueryExpr,
    sources: &SourceTypes,
    udfs: &UdfRegistry,
) -> Result<Staged, String> {
    let p = Some(root);
    if let Some(text) = text {
        let (parsed, _) = spans
            .leaf("steno-syntax.parse", p, req, || {
                steno_syntax::parse_query(text)
            })
            .map_err(|e| format!("parse `{text}`: {e}"))?;
        if &parsed != q {
            return Err(format!(
                "`{text}` parsed to a different query than the one run"
            ));
        }
    }
    let lopts = LowerOptions::default();
    let lowered = spans.leaf("steno-quil.lower", p, req, || {
        lower_with(q, sources, &TyEnv::new(), udfs, lopts)
    });
    let reference = |spans: &mut Spans| {
        spans.leaf("steno.compile", p, req, || {
            CompiledQuery::compile(q, sources.clone(), udfs)
        })
    };
    let chain = match lowered {
        Ok(c) => c,
        Err(LowerError::Unsupported(_)) => {
            return match reference(spans) {
                Err(_) => Ok(Staged::Unsupported),
                Ok(_) => Err(format!(
                    "`{q}`: staged lowering refused a query compile accepts"
                )),
            };
        }
        Err(e) => return Err(format!("`{q}`: lower: {e}")),
    };
    let chain = if lopts.specialize_group_aggregate {
        spans.leaf("steno-quil.passes", p, req, || {
            passes::specialize_group_aggregate(&chain).0
        })
    } else {
        chain
    };
    let outcome = spans.leaf("steno-opt.rewrite", p, req, || {
        steno_opt::rewrite(&chain, udfs, None)
    });
    let applied = outcome.log.iter().filter(|ev| ev.applied).count();
    let chain = outcome.chain;
    let chain = spans.leaf("steno-quil.passes", p, req, || {
        let c = if lopts.specialize_group_aggregate {
            passes::fuse_elementwise(&chain).0
        } else {
            chain
        };
        passes::fold_constants(&c)
    });
    let quil = chain.to_string();
    let imp = spans
        .leaf("steno-codegen.generate", p, req, || generate(&chain))
        .map_err(|e| format!("`{q}`: generate: {e}"))?;
    let rust = spans.leaf("steno-codegen.render", p, req, || render_rust(&imp));
    let program = spans
        .leaf("steno-vm.assemble", p, req, || {
            steno_vm::assemble(&imp, udfs)
        })
        .map_err(|e| format!("`{q}`: assemble: {e}"))?;
    let tape = spans
        .leaf("steno-vm.tapecheck", p, req, || {
            steno_vm::check_program(&program)
        })
        .map_err(|e| format!("`{q}`: tape check rejected the staged program: {e}"))?;
    spans
        .leaf("steno-analysis.verify", p, req, || {
            steno_analysis::verify(&chain, udfs)
        })
        .map_err(|e| format!("`{q}`: plan verifier rejected the staged chain: {e}"))?;

    // Stage-equivalence guard.
    let reference = reference(spans)
        .map_err(|e| format!("`{q}`: compile failed after lowering succeeded: {e}"))?;
    if quil != reference.quil()
        || rust != reference.rust_source()
        || program.len() != reference.instr_count()
        || loop_tiers(&program.loop_plans) != loop_tiers(reference.loop_plans())
    {
        return Err(format!(
            "stage-equivalence guard: staged compile of `{q}` differs from CompiledQuery::compile \
             (quil {:?} vs {:?}, instrs {} vs {})",
            quil,
            reference.quil(),
            program.len(),
            reference.instr_count()
        ));
    }
    counts.queries += 1;
    counts.chain_ops += chain.ops.len() as f64;
    counts.rewrites += applied as f64;
    counts.imp_stmts += imp.blocks.iter().map(Vec::len).sum::<usize>() as f64;
    counts.instrs += program.len() as f64;
    counts.obligations += f64::from(tape.total());
    Ok(Staged::Compiled(Arc::new(reference)))
}

/// Work counters summed over staged compiles.
#[derive(Default)]
pub struct CompileCounts {
    queries: u64,
    chain_ops: f64,
    rewrites: f64,
    imp_stmts: f64,
    instrs: f64,
    obligations: f64,
}

/// Fills the compile-side layer metrics (means per compiled query) from
/// the span totals and counters of every [`staged_compile`] so far.
pub fn compile_layers(
    layers: &mut LayerSet,
    counts: &CompileCounts,
    totals: &BTreeMap<&'static str, NameTotals>,
) {
    let n = counts.queries.max(1) as f64;
    let per_query = |name: &str| per_query_us(totals, counts, name);
    layers.set(
        "steno-syntax.parse_us",
        mean_us(totals, "steno-syntax.parse"),
    );
    layers.set("steno-quil.lower_us", per_query("steno-quil.lower"));
    layers.set("steno-quil.passes_us", per_query("steno-quil.passes"));
    layers.set("steno-opt.rewrite_us", per_query("steno-opt.rewrite"));
    layers.set(
        "steno-codegen.generate_us",
        per_query("steno-codegen.generate"),
    );
    layers.set("steno-codegen.render_us", per_query("steno-codegen.render"));
    layers.set("steno-vm.assemble_us", per_query("steno-vm.assemble"));
    layers.set("steno-vm.tapecheck_us", per_query("steno-vm.tapecheck"));
    layers.set(
        "steno-analysis.verify_us",
        per_query("steno-analysis.verify"),
    );
    let compile_us = per_query("steno.compile");
    layers.set("steno.compile_us", compile_us);
    // The stages `CompiledQuery::compile` itself runs (parse, tape check
    // and verify are outside it).
    let stage_sum: f64 = [
        "steno-quil.lower",
        "steno-quil.passes",
        "steno-opt.rewrite",
        "steno-codegen.generate",
        "steno-codegen.render",
        "steno-vm.assemble",
    ]
    .iter()
    .map(|s| per_query(s))
    .sum();
    if compile_us > 0.0 {
        layers.set("bench.stage_sum_over_compile", stage_sum / compile_us);
    }
    layers.set("steno-quil.chain_ops", counts.chain_ops / n);
    layers.set("steno-opt.rewrites_applied", counts.rewrites / n);
    layers.set("steno-codegen.imp_stmts", counts.imp_stmts / n);
    layers.set("steno-vm.tape_instrs", counts.instrs / n);
    layers.set("steno-vm.tapecheck_obligations", counts.obligations / n);
}

/// Total microseconds of spans named `name` per compiled query.
pub fn per_query_us(
    totals: &BTreeMap<&'static str, NameTotals>,
    counts: &CompileCounts,
    name: &str,
) -> f64 {
    let n = counts.queries.max(1) as f64;
    totals.get(name).map_or(0.0, |t| t.total_ns / n / 1e3)
}

/// The tier a plan's time is charged to: batch if any loop vectorized,
/// else fused if any loop fused, else scalar.
fn tier_of(c: &CompiledQuery) -> &'static str {
    let tiers = loop_tiers(c.loop_plans());
    if tiers.contains(&LoopTier::Vectorized) {
        "batch"
    } else if tiers.contains(&LoopTier::Fused) {
        "fused"
    } else {
        "scalar"
    }
}

/// One compiled plan with the data it runs on.
pub struct PlanCase<'a> {
    /// The engine whose cache holds `plan`.
    pub engine: &'a Steno,
    pub query: &'a QueryExpr,
    pub plan: Arc<CompiledQuery>,
    pub ctx: &'a DataContext,
    pub udfs: &'a UdfRegistry,
    /// Input elements one run consumes (the ns/elem denominator).
    pub elements: f64,
}

/// Times `f` until at least `min_reps` runs and `min_ns` total, returning
/// the median run time in nanoseconds.
fn median_ns<R>(min_reps: usize, min_ns: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < min_reps || (total < min_ns && samples.len() < 1000) {
        let (r, ns) = timed(&mut f);
        std::hint::black_box(r);
        samples.push(ns);
        total += ns;
    }
    median(&samples)
}

/// Fills the execution-side layer metrics for `cases`, recording one
/// `bench.plan_run` span per timed production run. Each case's engine
/// must already hold its plan, so its lookup is a cache hit.
pub fn exec_layers(
    layers: &mut LayerSet,
    spans: &mut Spans,
    cases: &[PlanCase<'_>],
) -> Result<(), String> {
    let mut per_tier: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut loops: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut kernels, mut batches, mut udf_calls) = (0u64, 0u64, 0u64);
    let (mut sel_in, mut sel_out, mut scalar_instrs, mut elems) = (0u64, 0u64, 0u64, 0.0);
    let mut profiled_over = Vec::new();
    let mut dispatch = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let c = &case.plan;
        for lp in c.loop_plans() {
            let t = match lp.tier {
                LoopTier::Vectorized => "batch",
                LoopTier::Fused => "fused",
                LoopTier::Scalar => "scalar",
            };
            *loops.entry(t).or_default() += 1;
        }
        kernels += c.fused_kernels().len() as u64;
        let run_ns = median_ns(5, 2e6, || {
            spans.leaf("bench.plan_run", None, i as u64, || {
                c.run(case.ctx, case.udfs)
            })
        });
        let prof_ns = median_ns(5, 2e6, || c.run_profiled(case.ctx, case.udfs));
        let lookup_ns = median_ns(5, 2e5, || {
            case.engine
                .compile(case.query, SourceTypes::from(case.ctx), case.udfs)
        });
        let (v, prof) = c
            .run_profiled(case.ctx, case.udfs)
            .map_err(|e| format!("run_profiled `{}`: {e}", case.query))?;
        let v2: Value = c
            .run(case.ctx, case.udfs)
            .map_err(|e| format!("run `{}`: {e}", case.query))?;
        crate::check::expect(&format!("run_profiled vs run of `{}`", case.query), &v, &v2)?;
        per_tier
            .entry(tier_of(c))
            .or_default()
            .push(run_ns / case.elements.max(1.0));
        profiled_over.push(prof_ns / run_ns);
        dispatch.push(lookup_ns / 1e3);
        batches += prof.batches;
        udf_calls += prof.udf_calls;
        sel_in += prof.batch_elements_in;
        sel_out += prof.batch_elements_selected;
        scalar_instrs += prof.scalar_instrs;
        elems += case.elements;
    }
    for (tier, name) in [
        ("batch", "steno-vm.run_ns_per_elem.batch"),
        ("fused", "steno-vm.run_ns_per_elem.fused"),
        ("scalar", "steno-vm.run_ns_per_elem.scalar"),
    ] {
        if let Some(v) = per_tier.get(tier) {
            layers.set(name, geomean(v));
        }
    }
    layers.set(
        "steno-vm.loops_batch",
        *loops.get("batch").unwrap_or(&0) as f64,
    );
    layers.set(
        "steno-vm.loops_fused",
        *loops.get("fused").unwrap_or(&0) as f64,
    );
    layers.set(
        "steno-vm.loops_scalar",
        *loops.get("scalar").unwrap_or(&0) as f64,
    );
    layers.set("steno-vm.fused_kernels", kernels as f64);
    layers.set("steno-vm.batches", batches as f64);
    if sel_in > 0 {
        layers.set("steno-vm.selected_density", sel_out as f64 / sel_in as f64);
    }
    if elems > 0.0 {
        layers.set(
            "steno-vm.scalar_instrs_per_elem",
            scalar_instrs as f64 / elems,
        );
    }
    layers.set("steno-vm.udf_calls", udf_calls as f64);
    if !profiled_over.is_empty() {
        layers.set("steno-vm.profiled_over_run", geomean(&profiled_over));
        layers.set("steno.dispatch_us", median(&dispatch));
    }
    Ok(())
}

/// Adds one detail row per layer: its share of an operation's time,
/// given each layer's mean microseconds per operation.
pub fn shares(report: &mut Report, parts: &[(&str, f64)]) {
    let sum: f64 = parts.iter().map(|(_, us)| us).sum();
    for (name, us) in parts {
        report.detail(format!(
            "share of operation time in {name:<26} {:>6.2}%  ({us:.2} us per operation)",
            100.0 * us / sum.max(f64::MIN_POSITIVE)
        ));
    }
}

/// Mean self time in microseconds over every span named `name`.
pub fn mean_us(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals
        .get(name)
        .filter(|t| t.count > 0)
        .map_or(0.0, |t| t.self_ns / t.count as f64 / 1e3)
}
