//! Golden snapshots of the machine-readable JSON surfaces.
//!
//! Downstream consumers parse `argus analyze --json` and `argus fuzz
//! --json`; these tests pin the exact bytes both emit on fixed inputs, so
//! any schema change (renamed key, reordered field, new escaping) shows up
//! as a reviewed diff to `tests/golden/` instead of a silent break.
//!
//! To bless an intentional change: `UPDATE_GOLDEN=1 cargo test -q
//! --test json_snapshots`, then commit the updated files.

use argus::fuzz::{run as run_fuzz, FuzzOptions};
use argus::prelude::*;
use std::path::{Path, PathBuf};

fn golden_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(rel)
}

fn check_golden(rel: &str, actual: &str) {
    let path = golden_path(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create", path.display())
    });
    assert_eq!(
        expected,
        actual,
        "{} drifted; if intentional, re-bless with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Light structural validation shared by both snapshot tests: the JSON
/// must at least contain the advertised top-level keys.
fn assert_has_keys(json: &str, keys: &[&str]) {
    for k in keys {
        assert!(json.contains(&format!("\"{k}\":")), "missing key {k:?} in {json}");
    }
}

#[test]
fn analyze_json_snapshots_on_corpus() {
    // One proved entry, one proved-with-multiple-sccs entry, one
    // zero-weight-cycle control: together they exercise every outcome
    // branch of the serializer.
    for name in ["append_bff", "perm", "loop_mutual"] {
        let entry = argus::corpus::find(name).expect(name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
        let report = analyze(&program, &query, adornment, &options);
        let json = report.to_json();
        assert_has_keys(&json, &["query", "verdict", "sccs"]);
        check_golden(&format!("analyze/{name}.json"), &json);
    }
}

/// Pin the θ `--stats --json` bytes: per-SCC FM counters and the
/// projection-cache totals. Each entry covers one path through the
/// pipeline: a plain proof (`perm`), the Appendix A transform retry
/// (`appendix_a1`), the Appendix C δ mode (`expr_parser`), and projection-
/// cache hits (`mutual_fib_ring`).
#[test]
fn analyze_stats_json_snapshots_on_corpus() {
    let cases = [
        ("perm", DeltaMode::Paper, "perm"),
        ("appendix_a1", DeltaMode::Paper, "appendix_a1"),
        ("expr_parser", DeltaMode::PathConstraints, "expr_parser-appendix-c"),
        ("mutual_fib_ring", DeltaMode::Paper, "mutual_fib_ring"),
    ];
    for (name, delta_mode, golden) in cases {
        let entry = argus::corpus::find(name).expect(name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let options = AnalysisOptions { parallelism: 1, delta_mode, ..AnalysisOptions::default() };
        let json = analyze(&program, &query, adornment, &options).to_json_with(true);
        assert_has_keys(&json, &["query", "verdict", "sccs", "stats", "run_stats"]);
        check_golden(&format!("analyze/stats/{golden}.json"), &json);
    }
}

/// Replace every integer that appears as a JSON *value* (a digit run
/// right after `:`) with `0`, leaving key names (`le_50`) and the schema
/// string untouched. Counter values vary run to run; the key set, nesting,
/// and field order must not.
fn normalize_counter_values(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == ':' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
            out.push('0');
        }
    }
    out
}

/// The `/metrics` snapshot is a public machine-readable surface like the
/// analyze JSON: pin its exact shape (schema string, key set, field
/// order) with counter values normalized to `0`.
#[test]
fn serve_metrics_snapshot_schema() {
    use argus::serve::{ServeOptions, ServerState};
    let state = ServerState::new(ServeOptions::default());
    let request = |path: &str, body: &[u8]| argus::serve::Request {
        method: if body.is_empty() { "GET" } else { "POST" }.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    };
    // Touch every counter family: a computed analyze, a cached repeat, a
    // malformed request, and a metrics read.
    let entry = argus::corpus::find("append_bff").unwrap();
    let body = format!(
        "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
        argus::serve::jsonval::json_str(entry.source),
        argus::serve::jsonval::json_str(entry.query),
        argus::serve::jsonval::json_str(entry.adornment)
    );
    assert_eq!(state.handle(&request("/v1/analyze", body.as_bytes())).status, 200);
    assert_eq!(state.handle(&request("/v1/analyze", body.as_bytes())).status, 200);
    assert_eq!(state.handle(&request("/v1/analyze", b"not json")).status, 400);
    assert_eq!(state.handle(&request("/metrics", b"")).status, 200);

    let snapshot = state.metrics_snapshot();
    assert!(snapshot.contains(argus::serve::METRICS_SCHEMA), "{snapshot}");
    argus::serve::jsonval::parse(&snapshot).expect("metrics snapshot parses as JSON");
    check_golden("serve/metrics.json", &normalize_counter_values(&snapshot));
}

/// Pin the `argus-engine/v1` surface: a portfolio race with an SCT win
/// (later engines rewritten to `cancelled`), a single-engine run, and a
/// no-winner race, each with the per-engine stats objects included. The
/// counters are deterministic by construction (no wall clock), so the
/// snapshots pin them verbatim — any drift in SCT's graph/closure
/// accounting or θ's per-SCC counters shows up here as a reviewed diff.
#[test]
fn engine_json_snapshots_on_corpus() {
    use argus::baselines::{engine_by_id, standard_engines};
    use argus::core::run_portfolio;
    let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
    let cases: [(&str, &str, bool); 3] = [
        ("sct_lex_reset", "portfolio", true), // sct wins, bs/uvg/naish cancelled
        ("sct_lex_reset", "sct", false),      // single engine, un-raced
        ("loop_direct", "portfolio", true),   // no winner, every verdict real
    ];
    for (name, engine, race) in cases {
        let entry = argus::corpus::find(name).expect(name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let engines = if engine == "portfolio" {
            standard_engines()
        } else {
            vec![engine_by_id(engine).unwrap()]
        };
        let report = run_portfolio(&engines, &program, &query, &adornment, &options, 1, race);
        let json = report.to_json(true);
        assert_has_keys(&json, &["schema", "query", "adornment", "verdict", "winner", "engines"]);
        assert!(json.contains("\"schema\":\"argus-engine/v1\""), "{json}");
        check_golden(&format!("engine/{name}-{engine}.json"), &json);
        // The text rendering and its stats block ride along in one file.
        let text = format!("{}{}", report, report.render_stats());
        check_golden(&format!("engine/{name}-{engine}.txt"), &text);
    }
}

#[test]
fn fuzz_json_snapshot() {
    let opts = FuzzOptions { seed: 1, cases: 20, jobs: 1, ..FuzzOptions::default() };
    let report = run_fuzz(&opts);
    let json = report.to_json();
    assert_has_keys(&json, &["seed", "cases", "verdicts", "shape", "violations", "warnings"]);
    check_golden("fuzz/seed1-cases20.json", &json);
}
