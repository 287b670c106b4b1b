//! Known answers the benchmark checks outputs against. Every check runs
//! outside the timed regions.

use crate::inputs::{Origin, Task};
use argus_core::{
    analyze, infer_conditions_for, AnalysisOptions, BackwardsOptions, InferenceReport, SccCache,
    TerminationReport, Verdict,
};
use argus_diag::lsp::render_lsp_diagnostics;
use argus_diag::moded::parse_query_spec;
use argus_diag::{lint_source, LintOptions};
use argus_logic::parser::parse_program;
use argus_logic::{Adornment, PredKey, Program};
use argus_serve::jsonval::{self, Json};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Arity cap of the backwards inference `argus lsp` runs on hover.
pub const HOVER_MAX_ARITY: usize = 4;

/// Interpreter step budget for confirming a claimed proof, as in the
/// fuzz harness.
const SLD_STEPS: u64 = 300_000;

/// The parsed query of a task.
pub fn query(task: &Task) -> Result<(PredKey, Adornment), String> {
    parse_query_spec(&task.query, &task.adornment)
}

/// The program of a task, parsed exactly as the server parses it.
pub fn program(task: &Task) -> Result<Program, String> {
    parse_program(&task.text).map_err(|e| format!("program does not parse: {e}"))
}

/// Analyze a task in process with the defaults every surface uses.
pub fn report(task: &Task) -> Result<TerminationReport, String> {
    let (q, adn) = query(task)?;
    Ok(analyze(&program(task)?, &q, adn, &AnalysisOptions::default()))
}

/// The verdict a task's origin demands of its report:
///
/// - a generated chain must be proved;
/// - a corpus entry must match its pinned provability, and a proof must
///   be of a mode that truly terminates;
/// - a fresh program without growth must be proved;
/// - a proof of a program with growth must survive the bounded SLD
///   interpreter.
pub fn verdict(origin: &Origin, task: &Task, report: &TerminationReport) -> Result<(), String> {
    let proved = report.verdict == Verdict::Terminates;
    match origin {
        Origin::Corpus(name) => {
            let entry = argus_corpus::find(name).ok_or(format!("no corpus entry {name}"))?;
            if proved != entry.expected_provable {
                return Err(format!(
                    "corpus {name}: verdict {:?}, pinned provable={}",
                    report.verdict, entry.expected_provable
                ));
            }
            if proved && !entry.terminates {
                return Err(format!("corpus {name}: proved a nonterminating mode"));
            }
            Ok(())
        }
        Origin::Fresh { has_growth: false } | Origin::Chain if !proved => Err(format!(
            "{} {}: a program without growth came back {:?}",
            task.query, task.adornment, report.verdict
        )),
        Origin::Fresh { has_growth: true } if proved => {
            let (q, _) = query(task)?;
            argus_fuzz::oracle::check_differential(&program(task)?, &q, SLD_STEPS)
                .map_err(|e| format!("{} proved but SLD disagrees: {e}", task.query))
        }
        _ => Ok(()),
    }
}

/// The verdict field of an `analyze --json` document.
pub fn json_verdict(body: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "output is not UTF-8".to_string())?;
    let v = jsonval::parse(text).map_err(|e| format!("output is not JSON: {e}"))?;
    v.get("verdict").and_then(Json::as_str).map(str::to_string).ok_or("no verdict".into())
}

/// The `diagnostics` array `argus lsp` must publish for `text`, whose
/// query directive names `task`'s query: the batch lint of the same
/// text, rendered for LSP.
pub fn lsp_diagnostics(text: &str, uri: &str, task: &Task) -> Result<Json, String> {
    let diags = lint_source(text, &LintOptions { query: Some(query(task)?) });
    jsonval::parse(&render_lsp_diagnostics(&diags, text, uri)).map_err(|e| e.to_string())
}

/// The backwards inference `argus lsp` runs on a hover over `pred`, with
/// the server's options: the arity cap, `jobs` threads, and an SCC memo
/// kept across the session's hovers.
pub fn hover_inference(
    program: &Program,
    pred: &PredKey,
    jobs: usize,
    memo: &Arc<SccCache>,
) -> InferenceReport {
    let options = BackwardsOptions {
        max_arity: HOVER_MAX_ARITY,
        analysis: AnalysisOptions { parallelism: jobs, ..AnalysisOptions::default() },
        scc_memo: Some(memo.clone()),
        ..BackwardsOptions::default()
    };
    let targets: BTreeSet<PredKey> = [pred.clone()].into_iter().collect();
    infer_conditions_for(program, &targets, &options)
}

/// The start every hover answer on `pred` must have, given the in-process
/// inference: the predicate and its inferred condition. Every hovered
/// predicate is a clause head of a program without growth, so a missing
/// or everywhere-false condition is itself a failure.
pub fn hover_answer(inferred: &InferenceReport, pred: &PredKey) -> Result<String, String> {
    let cond = inferred
        .conditions
        .iter()
        .find(|c| c.pred == *pred)
        .ok_or(format!("no termination condition inferred for {pred}"))?;
    if cond.condition.is_true() {
        Ok(format!("`{pred}` terminates for every call mode"))
    } else if cond.condition.is_false() {
        Err(format!("{pred}: termination unproven for every call mode"))
    } else {
        Ok(format!("`{pred}` terminates if **{}**", cond.condition))
    }
}

/// A hover response on `pred` (as `name/arity`) over the document `text`
/// must state the condition the in-process inference gives.
pub fn hover(
    text: &str,
    pred: &str,
    result: &Json,
    jobs: usize,
    memo: &Arc<SccCache>,
) -> Result<(), String> {
    let value = result
        .get("contents")
        .and_then(|c| c.get("value"))
        .and_then(Json::as_str)
        .ok_or(format!("hover on {pred} answered {result:?}"))?;
    let program = parse_program(text).map_err(|e| format!("document does not parse: {e}"))?;
    let key = program
        .idb_predicates()
        .into_iter()
        .find(|p| p.to_string() == pred)
        .ok_or(format!("no predicate {pred} in the document"))?;
    let want = hover_answer(&hover_inference(&program, &key, jobs, memo), &key)?;
    if value.starts_with(&want) {
        Ok(())
    } else {
        Err(format!("hover on {pred} answered {value:?}, the in-process answer is {want:?}"))
    }
}
