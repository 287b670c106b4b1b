//! Traced runs: the workload's inputs replayed through the layers'
//! public functions in process, each call timed in a span.
//!
//! The replay runs twice, first with the recorder off and then on; the
//! difference of the two wall times is the tracing overhead. Every run
//! reports every per-layer metric; a layer the workload does not load
//! reports 0. `METRICS.md` defines each metric and the end-to-end metric
//! it should move.

use crate::check;
use crate::e2e;
use crate::inputs::{self, Origin, SessionOp, Task};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use argus_core::{analyze, analyze_with_caches, AnalysisOptions, SccCache, Verdict};
use argus_diag::lsp::render_lsp_diagnostics;
use argus_diag::{lint_source_memo, LintOptions};
use argus_linear::{FmConfig, FmStats};
use argus_logic::parser::parse_program;
use argus_logic::program::ProcIndex;
use argus_logic::{adorn_program, DepGraph, PredKey};
use argus_serve::jsonval::{self, json_str, Json};
use argus_sizerel::{infer_scc_sizes, infer_size_relations_instrumented, InferOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold analyses of the chain per replay of a traced `cold_chain` run.
const TRACED_CHAIN_RUNS: usize = 4;
/// Edits per traced `edit_session` run.
const TRACED_EDITS: usize = 20;

/// Every per-layer metric, in report order, with its unit. A run fills
/// the ones its workload loads; the rest report 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("logic.parse_ms", "ms"),
    ("logic.adorn_ms", "ms"),
    ("logic.depgraph_ms", "ms"),
    ("sizerel.fixpoint_ms", "ms"),
    ("sizerel.scc_p50_ms", "ms"),
    ("sizerel.scc_max_ms", "ms"),
    ("sizerel.top10_share", "frac"),
    ("linear.fm_rows_in", "count"),
    ("linear.fm_pairs_combined", "count"),
    ("linear.fm_peak_rows", "count"),
    ("linear.fm_chernikov_drops", "count"),
    ("core.analyze_ms", "ms"),
    ("core.raw_ms", "ms"),
    ("core.theta_ms", "ms"),
    ("core.retry_ms", "ms"),
    ("core.retry_share", "frac"),
    ("transform.phases_ms", "ms"),
    ("core.proj_cache_hit_ratio", "frac"),
    ("core.proj_cache_lookups", "count"),
    ("core.memo_edit_ms", "ms"),
    ("core.memo_noop_ms", "ms"),
    ("core.dirty_sccs", "count"),
    ("core.total_sccs", "count"),
    ("core.cone_share", "frac"),
    ("diag.lint_ms", "ms"),
    ("diag.render_ms", "ms"),
    ("diag.diagnostics", "count"),
    ("lsp.edit_ms", "ms"),
    ("lsp.overhead_ms", "ms"),
    ("lsp.hover_ms", "ms"),
    ("core.backwards_ms", "ms"),
    ("serve.json_parse_ms", "ms"),
    ("serve.report_cache_hit_ratio", "frac"),
    ("serve.report_cache_lookups", "count"),
    ("logic.share", "frac"),
    ("sizerel.share", "frac"),
    ("core.share", "frac"),
    ("transform.share", "frac"),
    ("diag.share", "frac"),
    ("lsp.share", "frac"),
    ("serve.share", "frac"),
    ("logic.self_ms", "ms"),
    ("sizerel.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("transform.self_ms", "ms"),
    ("diag.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.traced_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Metric values by name, reported in [`LAYER_METRICS`] order.
type Values = BTreeMap<&'static str, f64>;

fn finish(out: &mut Outcome, mut values: Values, t: &Tracer, traced: Duration, untraced: Duration) {
    values.insert("trace.spans", t.spans().len() as f64);
    values.insert("trace.traced_ms", ms(traced));
    values.insert("trace.untraced_ms", ms(untraced));
    values.insert("trace.overhead_ms", ms(traced) - ms(untraced));
    for &(name, unit) in LAYER_METRICS {
        out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Write the spans of a traced run to `.bench_out/`, as JSON lines.
fn write_spans(args: &Args, t: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parse every task once, so the first replay does not pay alone for
/// interning their symbols.
fn warm_up<'a>(tasks: impl IntoIterator<Item = &'a Task>) {
    for task in tasks {
        let _ = parse_program(&task.text);
    }
}

/// Run `replay` untraced, then traced; returns the traced recorder, the
/// traced replay's result, and both wall times.
fn twice<T>(
    mut replay: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(Tracer, T, Duration, Duration), String> {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    replay(&mut off)?;
    let untraced = t0.elapsed();
    let mut on = Tracer::new(true);
    let t1 = Instant::now();
    let result = replay(&mut on)?;
    let traced = t1.elapsed();
    Ok((on, result, traced, untraced))
}

/// Per-analysis measurements, summed over the replayed analyses.
#[derive(Default)]
struct AnalysisSums {
    ops: usize,
    analyze: f64,
    raw: f64,
    adorn: f64,
    depgraph: f64,
    fixpoint: f64,
    transform: f64,
    fm: FmStats,
    proj_lookups: u64,
    proj_hits: u64,
    /// (verdict check, known answer) per analysis, checked afterwards.
    checks: Vec<Result<(), String>>,
}

/// One analysis, as a user of `argus analyze` or `POST /v1/analyze`
/// causes it: decode the request, parse, analyze; then, for attribution,
/// the layers `analyze` calls, each on its own.
fn analysis_op(
    t: &mut Tracer,
    task: &Task,
    origin: &Origin,
    body: &str,
    sums: &mut AnalysisSums,
) -> Result<(), String> {
    let (q, adn) = check::query(task)?;
    t.next_op();
    t.span("bench.op", |t| {
        t.leaf("serve.json_parse", || jsonval::parse(body)).map_err(|e| e.to_string())?;
        let program =
            t.leaf("logic.parse", || parse_program(&task.text)).map_err(|e| e.to_string())?;
        let t_an = Instant::now();
        let report = t.leaf("core.analyze", || {
            analyze(&program, &q, adn.clone(), &AnalysisOptions::default())
        });
        let analyze_ms = ms(t_an.elapsed());
        sums.checks.push(check::verdict(origin, task, &report));
        sums.ops += 1;
        sums.analyze += analyze_ms;
        sums.proj_lookups += report.run_stats.cache_requests;
        sums.proj_hits += report.run_stats.cache_hits();
        t.span("bench.attribute", |t| {
            let t0 = Instant::now();
            let adorned = t.leaf("logic.adorn", || adorn_program(&program, &q, adn.clone()));
            sums.adorn += ms(t0.elapsed());
            let t0 = Instant::now();
            let graph = t.leaf("logic.depgraph", || DepGraph::build(&adorned.program));
            sums.depgraph += ms(t0.elapsed());
            let options = InferOptions::default();
            let t0 = Instant::now();
            t.leaf("sizerel.fixpoint", || {
                infer_size_relations_instrumented(
                    &adorned.program,
                    &options,
                    &FmConfig::default(),
                    &mut sums.fm,
                )
            });
            sums.fixpoint += ms(t0.elapsed());
            // The same fixpoint SCC by SCC, bottom-up.
            let index = ProcIndex::build(&adorned.program);
            let mut rels = argus_sizerel::SizeRelations::new();
            for scc in graph.sccs_bottom_up() {
                let members: Vec<PredKey> = graph
                    .scc(scc)
                    .into_iter()
                    .filter(|p| !index.rule_indices(p).is_empty())
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let recursive = members.iter().any(|p| graph.is_recursive(p));
                t.leaf("sizerel.scc", || {
                    infer_scc_sizes(
                        &adorned.program,
                        &index,
                        &members,
                        recursive,
                        &mut rels,
                        &options,
                    )
                });
            }
            // `analyze` retries on the transformed program only when the
            // raw pass does not prove termination; otherwise the raw pass
            // was the whole call.
            if report.verdict == Verdict::Terminates {
                sums.raw += analyze_ms;
            } else {
                let raw_options =
                    AnalysisOptions { transform_phases: 0, ..AnalysisOptions::default() };
                let t0 = Instant::now();
                t.leaf("core.raw", || analyze(&program, &q, adn.clone(), &raw_options));
                sums.raw += ms(t0.elapsed());
                let roots: BTreeSet<PredKey> = [q.clone()].into_iter().collect();
                let phases = AnalysisOptions::default().transform_phases;
                let t0 = Instant::now();
                t.leaf("transform.phases", || {
                    argus_transform::transform_fixed_phases(&program, &roots, phases)
                });
                sums.transform += ms(t0.elapsed());
            }
        });
        Ok(())
    })
}

/// The metrics of replayed analyses (per-analysis means), given the
/// recorder that timed them.
fn analysis_values(t: &Tracer, sums: &AnalysisSums) -> Values {
    let n = sums.ops.max(1) as f64;
    let mean = |name: &str| t.total_ms(name) / n;
    let scc = t.samples_ms("sizerel.scc");
    let mut top = scc.clone();
    top.sort_by(|a, b| b.total_cmp(a));
    let top10: f64 = top.iter().take(10).sum();
    let parse = t.total_ms("logic.parse");
    let json = t.total_ms("serve.json_parse");
    let theta = sums.raw - sums.adorn - sums.fixpoint;
    let retry = sums.analyze - sums.raw;
    let base = sums.analyze + parse + json;
    let mut v = Values::new();
    v.insert("logic.parse_ms", parse / n);
    v.insert("logic.adorn_ms", sums.adorn / n);
    v.insert("logic.depgraph_ms", sums.depgraph / n);
    v.insert("sizerel.fixpoint_ms", sums.fixpoint / n);
    v.insert("sizerel.scc_p50_ms", median(&scc));
    v.insert("sizerel.scc_max_ms", quantile(&scc, 1.0));
    v.insert("sizerel.top10_share", ratio(top10, scc.iter().sum()));
    v.insert("linear.fm_rows_in", sums.fm.rows_in as f64 / n);
    v.insert("linear.fm_pairs_combined", sums.fm.pairs_combined as f64 / n);
    v.insert("linear.fm_peak_rows", sums.fm.peak_rows as f64);
    v.insert("linear.fm_chernikov_drops", sums.fm.chernikov_drops as f64 / n);
    v.insert("core.analyze_ms", sums.analyze / n);
    v.insert("core.raw_ms", sums.raw / n);
    v.insert("core.theta_ms", theta / n);
    v.insert("core.retry_ms", retry / n);
    v.insert("core.retry_share", ratio(retry, sums.analyze));
    v.insert("transform.phases_ms", sums.transform / n);
    v.insert("core.proj_cache_hit_ratio", ratio(sums.proj_hits as f64, sums.proj_lookups as f64));
    v.insert("core.proj_cache_lookups", sums.proj_lookups as f64 / n);
    v.insert("serve.json_parse_ms", mean("serve.json_parse"));
    // Self time: each layer's calls minus the layers they call. `analyze`
    // is one opaque call, so the layers under it are timed by the
    // separate attribution calls; the per-SCC replay and the raw re-run
    // only split those further and count toward no layer.
    let logic = parse + sums.adorn + sums.depgraph;
    let core = sums.analyze - sums.adorn - sums.depgraph - sums.fixpoint - sums.transform;
    for (layer, self_ms) in [
        ("logic", logic),
        ("sizerel", sums.fixpoint),
        ("core", core),
        ("transform", sums.transform),
        ("serve", json),
    ] {
        self_time(&mut v, layer, self_ms, n, base);
    }
    v
}

/// Report a layer's self time as a mean per operation (`<layer>.self_ms`)
/// and as a share of `base`, the time the user waits (`<layer>.share`).
fn self_time(v: &mut Values, layer: &str, total_ms: f64, ops: f64, base: f64) {
    let name = |suffix: &str| {
        let full = format!("{layer}.{suffix}");
        LAYER_METRICS.iter().map(|&(n, _)| n).find(|n| *n == full).expect("a listed metric")
    };
    v.insert(name("self_ms"), total_ms / ops);
    v.insert(name("share"), ratio(total_ms, base));
}

/// `cold_chain`, traced: the chain program through every analysis layer.
pub fn cold_chain(args: &Args) -> Result<Outcome, String> {
    let task = inputs::chain(args.seed);
    let body = task.request_body();
    warm_up([&task]);
    // The same cold analysis several times: the layers are timed one call
    // at a time, so their shares are ratios of separate calls, and
    // repeating them evens out the host's noise.
    let (t, sums, traced, untraced) = twice(|t| {
        let mut sums = AnalysisSums::default();
        for _ in 0..TRACED_CHAIN_RUNS {
            analysis_op(t, &task, &Origin::Chain, &body, &mut sums)?;
        }
        Ok(sums)
    })?;
    let mut out = Outcome::default();
    for c in &sums.checks {
        out.check(c.clone());
    }
    let values = analysis_values(&t, &sums);
    write_spans(args, &t)?;
    finish(&mut out, values, &t, traced, untraced);
    Ok(out)
}

/// `serve_mix`, traced: a short burst against `argus serve` for the
/// report cache's hit ratio, then every distinct program of the burst
/// through every analysis layer.
pub fn serve_mix(args: &Args) -> Result<Outcome, String> {
    /// Requests in the traced burst.
    const BURST: usize = 150;
    let requests = inputs::requests(args.seed, 1);
    let burst = &requests[..BURST];
    let server = e2e::start_server(args)?;
    let before = server.metrics()?;
    let (done, _) = e2e::drive(&server.addr, burst)?;
    let after = server.metrics()?;
    let _ = server.stop();
    let mut out = Outcome::default();
    for c in &done {
        out.check(if c.status == 200 {
            Ok(())
        } else {
            Err(format!("request answered {}", c.status))
        });
    }
    let cache = |m: &Json, k: &str| {
        m.get("report_cache").and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0) as f64
    };
    let hits = cache(&after, "hits") - cache(&before, "hits");
    let lookups = hits + cache(&after, "misses") - cache(&before, "misses");

    // The server answers a repeated body from its report cache, so the
    // replay analyzes each distinct body once, in stream order.
    let mut seen = BTreeSet::new();
    let distinct: Vec<&inputs::Request> = burst.iter().filter(|r| seen.insert(&r.body)).collect();
    warm_up(distinct.iter().map(|r| &r.task));
    let (t, sums, traced, untraced) = twice(|t| {
        let mut sums = AnalysisSums::default();
        for r in &distinct {
            let origin = match &r.origin {
                Origin::Resubmit(k) => &requests[*k].origin,
                o => o,
            };
            analysis_op(t, &r.task, origin, &r.body, &mut sums)?;
        }
        Ok(sums)
    })?;
    for c in &sums.checks {
        out.check(c.clone());
    }
    let mut values = analysis_values(&t, &sums);
    values.insert("serve.report_cache_hit_ratio", ratio(hits, lookups));
    values.insert("serve.report_cache_lookups", lookups);
    write_spans(args, &t)?;
    finish(&mut out, values, &t, traced, untraced);
    Ok(out)
}

/// What the real server did for one replayed edit or hover.
struct Served {
    latency_ms: f64,
    /// The published diagnostics (edits only).
    diagnostics: Option<Json>,
}

/// `edit_session`, traced: the session against `argus lsp` for the edit
/// latencies the user sees, then the same edits in process through the
/// lint, render, memo and backwards layers.
pub fn edit_session(args: &Args) -> Result<Outcome, String> {
    let session = inputs::session(args.seed);
    warm_up([&session.task]);
    let uri = e2e::URI;
    let (q, adn) = check::query(&session.task)?;
    let lint_options = LintOptions { query: Some((q.clone(), adn.clone())) };

    // The user's view: a prefix of the edit stream against the real
    // server.
    let mut lsp = e2e::open_session(args, &session.text)?;
    let mut served = Vec::new();
    let mut version = 1i64;
    for op in &session.ops {
        if served.iter().filter(|s: &&Served| s.diagnostics.is_some()).count() == TRACED_EDITS {
            break;
        }
        let t0 = Instant::now();
        served.push(match op {
            SessionOp::Edit { range, text, .. } => {
                version += 1;
                lsp.client.did_change_range(uri, version, *range, text);
                let publish = lsp.client.wait_publish(uri, version);
                lsp.client.notifications.clear();
                Served {
                    latency_ms: ms(t0.elapsed()),
                    diagnostics: publish.get("diagnostics").cloned(),
                }
            }
            SessionOp::Hover { line, character, .. } => {
                lsp.client.hover(uri, *line, *character);
                Served { latency_ms: ms(t0.elapsed()), diagnostics: None }
            }
        });
    }
    let _ = lsp.close();
    let ops = &session.ops[..served.len()];

    #[derive(Default)]
    struct Replayed {
        lint: Vec<f64>,
        render: Vec<f64>,
        diagnostics: Vec<f64>,
        memo_edit: Vec<f64>,
        memo_noop: Vec<f64>,
        dirty: Vec<f64>,
        total: Vec<f64>,
        checks: Vec<Result<(), String>>,
    }
    let (t, rep, traced, untraced) = twice(|t| {
        let mut rep = Replayed::default();
        // Two memos primed on the opened document: one behind the lint
        // (as in the server), one behind the bare analyses, so neither
        // warms the other's dirty cone.
        let lint_memo = Arc::new(SccCache::unbounded());
        let core_memo = SccCache::unbounded();
        let mut lines = inputs::split_lines(&session.text);
        let program = parse_program(&session.text).map_err(|e| e.to_string())?;
        t.leaf("diag.open", || {
            lint_source_memo(&session.text, &lint_options, Some(lint_memo.clone()), e2e::LSP_JOBS)
        });
        let options = AnalysisOptions { parallelism: e2e::LSP_JOBS, ..AnalysisOptions::default() };
        t.leaf("core.memo_open", || {
            analyze_with_caches(&program, &q, adn.clone(), &options, None, Some(&core_memo))
        });
        for (op, seen) in ops.iter().zip(&served) {
            t.next_op();
            inputs::apply_edit(&mut lines, op);
            let text = inputs::join_lines(&lines);
            match op {
                SessionOp::Edit { range, text: new, .. } => t.span("bench.op", |t| {
                    let payload = did_change_payload(uri, range, new);
                    t.leaf("serve.json_parse", || jsonval::parse(&payload))
                        .map_err(|e| e.to_string())?;
                    let t0 = Instant::now();
                    let run = t.leaf("diag.lint", || {
                        lint_source_memo(
                            &text,
                            &lint_options,
                            Some(lint_memo.clone()),
                            e2e::LSP_JOBS,
                        )
                    });
                    rep.lint.push(ms(t0.elapsed()));
                    let t0 = Instant::now();
                    let rendered = t.leaf("diag.render", || {
                        render_lsp_diagnostics(&run.diagnostics, &text, uri)
                    });
                    rep.render.push(ms(t0.elapsed()));
                    rep.diagnostics.push(run.diagnostics.len() as f64);
                    let same = jsonval::parse(&rendered).ok() == seen.diagnostics;
                    rep.checks.push(if same {
                        Ok(())
                    } else {
                        Err("published diagnostics differ from the in-process lint".into())
                    });
                    t.span("bench.attribute", |t| {
                        let program = t
                            .leaf("logic.parse", || parse_program(&text))
                            .map_err(|e| e.to_string())?;
                        let t0 = Instant::now();
                        let report = t.leaf("core.memo_edit", || {
                            analyze_with_caches(
                                &program,
                                &q,
                                adn.clone(),
                                &options,
                                None,
                                Some(&core_memo),
                            )
                        });
                        rep.memo_edit.push(ms(t0.elapsed()));
                        let t0 = Instant::now();
                        t.leaf("core.memo_noop", || {
                            analyze_with_caches(
                                &program,
                                &q,
                                adn.clone(),
                                &options,
                                None,
                                Some(&core_memo),
                            )
                        });
                        rep.memo_noop.push(ms(t0.elapsed()));
                        let incr = report.incremental.unwrap_or_default();
                        rep.dirty.push(incr.dirty() as f64);
                        rep.total.push(incr.total() as f64);
                        rep.checks.push(check::verdict(&Origin::Chain, &session.task, &report));
                        Ok::<(), String>(())
                    })
                })?,
                SessionOp::Hover { pred, .. } => t.span("bench.op", |t| {
                    let program = parse_program(&text).map_err(|e| e.to_string())?;
                    let key = program
                        .idb_predicates()
                        .into_iter()
                        .find(|p| p.to_string() == *pred)
                        .ok_or(format!("no predicate {pred} in the document"))?;
                    // As the server's hover runs it.
                    let inferred = t.leaf("core.backwards", || {
                        check::hover_inference(&program, &key, e2e::LSP_JOBS, &lint_memo)
                    });
                    rep.checks.push(check::hover_answer(&inferred, &key).map(drop));
                    Ok::<(), String>(())
                })?,
            }
        }
        Ok(rep)
    })?;

    let mut out = Outcome::default();
    for c in &rep.checks {
        out.check(c.clone());
    }
    let edit_latency: Vec<f64> =
        served.iter().filter(|s| s.diagnostics.is_some()).map(|s| s.latency_ms).collect();
    let hover_latency: Vec<f64> =
        served.iter().filter(|s| s.diagnostics.is_none()).map(|s| s.latency_ms).collect();
    let overhead: Vec<f64> = edit_latency
        .iter()
        .zip(rep.lint.iter().zip(&rep.render))
        .map(|(e, (l, r))| e - l - r)
        .collect();
    let cone: f64 = rep.memo_edit.iter().zip(&rep.memo_noop).map(|(e, n)| e - n).sum();
    let total_latency: f64 = edit_latency.iter().sum();
    let parse = t.total_ms("logic.parse");
    let json = t.total_ms("serve.json_parse");
    let lint: f64 = rep.lint.iter().sum();
    let render: f64 = rep.render.iter().sum();
    let memo_edit: f64 = rep.memo_edit.iter().sum();
    let mut v = Values::new();
    v.insert("logic.parse_ms", median(&t.samples_ms("logic.parse")));
    v.insert("core.memo_edit_ms", median(&rep.memo_edit));
    v.insert("core.memo_noop_ms", median(&rep.memo_noop));
    v.insert("core.dirty_sccs", mean(&rep.dirty));
    v.insert("core.total_sccs", mean(&rep.total));
    v.insert("core.cone_share", ratio(cone, total_latency));
    v.insert("diag.lint_ms", median(&rep.lint));
    v.insert("diag.render_ms", median(&rep.render));
    v.insert("diag.diagnostics", median(&rep.diagnostics));
    v.insert("lsp.edit_ms", median(&edit_latency));
    v.insert("lsp.overhead_ms", median(&overhead));
    v.insert("lsp.hover_ms", median(&hover_latency));
    v.insert("core.backwards_ms", median(&t.samples_ms("core.backwards")));
    v.insert("serve.json_parse_ms", median(&t.samples_ms("serve.json_parse")));
    // Self times per edit and shares of the edit latency the user saw:
    // `core` is the memoized analysis, `diag` the lint and render around
    // it (minus its parse and analysis), `lsp` the rest of the latency.
    let edits = edit_latency.len().max(1) as f64;
    for (layer, self_ms) in [
        ("serve", json),
        ("logic", parse),
        ("core", memo_edit),
        ("diag", lint + render - parse - memo_edit),
    ] {
        self_time(&mut v, layer, self_ms, edits, total_latency);
    }
    v.insert("lsp.share", ratio(total_latency - lint - render - json, total_latency));
    write_spans(args, &t)?;
    finish(&mut out, v, &t, traced, untraced);
    Ok(out)
}

/// The `didChange` notification the client sends for one ranged edit.
fn did_change_payload(uri: &str, range: &((usize, usize), (usize, usize)), text: &str) -> String {
    let ((sl, sc), (el, ec)) = *range;
    format!(
        "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":\
         {{\"textDocument\":{{\"uri\":{}}},\"contentChanges\":[{{\"range\":{{\
         \"start\":{{\"line\":{sl},\"character\":{sc}}},\
         \"end\":{{\"line\":{el},\"character\":{ec}}}}},\"text\":{}}}]}}}}",
        json_str(uri),
        json_str(text)
    )
}
