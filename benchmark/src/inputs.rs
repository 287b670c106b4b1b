//! Seeded inputs for the three workloads.
//!
//! Everything the program under test sees — the chain program, the
//! editor session's document and edit stream, the server's request
//! stream — is a pure function of the benchmark seed, so the same seed
//! reproduces the same bytes and a second seed gives inputs of the same
//! shape. Nothing in the inputs names the workload they belong to.

use argus_fuzz::gen::{generate, scale_case, GenCase, GenOptions};
use argus_prng::Rng64;
use argus_serve::jsonval::json_str;
use std::collections::{BTreeSet, HashMap};

/// Clauses in the `cold_chain` program.
pub const CHAIN_CLAUSES: usize = 400;
/// Clauses in the `edit_session` document.
pub const SESSION_CLAUSES: usize = 600;

/// An independent seed for one input stream of a run (`stream` tags the
/// stream, so the chain, the document and the requests never share
/// random draws).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A program with the query the analyzer is asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Program text, one clause per line.
    pub text: String,
    /// Query predicate as `name/arity`.
    pub query: String,
    /// Call adornment of the query, such as `bf`.
    pub adornment: String,
}

impl Task {
    fn of(case: &GenCase) -> Task {
        Task {
            text: case.program.to_string(),
            query: case.query.to_string(),
            adornment: case.adornment.to_string(),
        }
    }

    /// The `POST /v1/analyze` body asking for this task with server
    /// defaults.
    pub fn request_body(&self) -> String {
        format!(
            "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
            json_str(&self.text),
            json_str(&self.query),
            json_str(&self.adornment)
        )
    }
}

/// Generator seeds of the chain shapes: the `cold_chain` program and the
/// `edit_session` document.
///
/// The cost of analyzing a generated chain is dominated by its heaviest
/// few SCCs, so chains from different generator seeds differ by ±25% in
/// cold analysis time at 2k clauses (5.4–8.8 s over six seeds). Runs on
/// different benchmark seeds must be comparable, so each workload keeps
/// one chain shape, and the benchmark seed renames every predicate (see
/// [`rename`]). The program-changing edits and the hovers of a session
/// follow a fixed sequence too, for the same reason: hover cost grows
/// with the depth of the chain below the hovered predicate, from 17 ms
/// to 6.4 s in one session, and it depends on which SCCs the edits
/// before it invalidated; only the places of the whitespace edits are
/// drawn from the benchmark seed.
const CHAIN_SHAPE: u64 = 1;
const SESSION_SHAPE: u64 = 2;

/// The `cold_chain` input: one generated chain of SCCs, every level
/// calling the one below, provable end to end.
pub fn chain(seed: u64) -> Task {
    let case = scale_case(CHAIN_SHAPE, CHAIN_CLAUSES);
    rename(&Task::of(&case), &mut Rng64::new(sub_seed(seed, 1)))
}

/// `task` with every generated predicate name (`p<level>_<index>`)
/// replaced by a fresh seeded name.
///
/// The renaming preserves the names' string order, and every fresh name
/// starts with `p` like the names it replaces, so each map and set the
/// analyzer orders by name iterates in the same order: the renamed
/// program costs the same work as the original.
fn rename(task: &Task, r: &mut Rng64) -> Task {
    let is_generated = |w: &str| {
        w.strip_prefix('p').and_then(|rest| rest.split_once('_')).is_some_and(|(a, b)| {
            !a.is_empty()
                && !b.is_empty()
                && a.bytes().all(|c| c.is_ascii_digit())
                && b.bytes().all(|c| c.is_ascii_digit())
        })
    };
    // Split into words and separators; `true` marks a generated name.
    let words = |text: &str| -> Vec<(String, bool)> {
        let mut out = Vec::new();
        let mut word = String::new();
        for ch in text.chars() {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                word.push(ch);
                continue;
            }
            if !word.is_empty() {
                let generated = is_generated(&word);
                out.push((std::mem::take(&mut word), generated));
            }
            out.push((ch.to_string(), false));
        }
        if !word.is_empty() {
            let generated = is_generated(&word);
            out.push((word, generated));
        }
        out
    };
    let (text, query) = (words(&task.text), words(&task.query));
    let old: BTreeSet<&str> =
        text.iter().chain(&query).filter(|(_, g)| *g).map(|(w, _)| w.as_str()).collect();
    let mut fresh: BTreeSet<String> = BTreeSet::new();
    while fresh.len() < old.len() {
        let tail: String = (0..6).map(|_| char::from(b'a' + r.below(26) as u8)).collect();
        fresh.insert(format!("p{tail}"));
    }
    let names: HashMap<&str, String> = old.into_iter().zip(fresh).collect();
    let join = |ws: &[(String, bool)]| -> String {
        ws.iter().map(|(w, g)| if *g { names[w.as_str()].as_str() } else { w.as_str() }).collect()
    };
    Task { text: join(&text), query: join(&query), adornment: task.adornment.clone() }
}

/// One step of an editor session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// A one-clause `didChange`: replace `range` (LSP line/character
    /// positions; the document is ASCII, so characters are bytes) by
    /// `text`.
    Edit {
        /// What the edit does to the program.
        kind: EditKind,
        /// Start and end positions as `((line, character), (line, character))`.
        range: ((usize, usize), (usize, usize)),
        /// Replacement text.
        text: String,
    },
    /// A `textDocument/hover` on the head of a clause.
    Hover {
        /// Zero-based line.
        line: usize,
        /// Zero-based character.
        character: usize,
        /// The predicate under the cursor, as `name/arity`.
        pred: String,
    },
}

/// The three kinds of one-clause edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Append a duplicate of one of the document's rules.
    AppendDuplicate,
    /// Delete a clause an earlier edit appended.
    DeleteAdded,
    /// Add a space at the end of a line: new text, same program.
    Whitespace,
}

/// The `edit_session` input: the opened document and the edit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The program analyzed, with its query.
    pub task: Task,
    /// Text of the document at `didOpen`: a query directive line, then
    /// the program one clause per line.
    pub text: String,
    /// Seeded edits with hovers in between, longer than any run uses.
    pub ops: Vec<SessionOp>,
}

/// Number of operations generated for a session.
const SESSION_OPS: usize = 2000;

/// The `edit_session` input for `seed`.
pub fn session(seed: u64) -> Session {
    let case = scale_case(SESSION_SHAPE, SESSION_CLAUSES);
    let task = rename(&Task::of(&case), &mut Rng64::new(sub_seed(seed, 2)));
    let mut lines: Vec<String> = vec![format!("% argus query: {} {}", task.query, task.adornment)];
    lines.extend(task.text.lines().map(str::to_string));
    let text = join_lines(&lines);
    // Lines 1..=rules hold the original clauses. Edits only append after
    // them or delete appended lines, so their line numbers never move.
    let rules = lines.len() - 1;
    let mut added: Vec<usize> = Vec::new();
    // The edits that change the program follow the fixed shape; the seed
    // places the whitespace edits.
    let mut shape = Rng64::new(sub_seed(SESSION_SHAPE, 3));
    let mut r = Rng64::new(sub_seed(seed, 3));
    let mut ops = Vec::with_capacity(SESSION_OPS);
    while ops.len() < SESSION_OPS {
        let kind = match shape.below(3) {
            1 if !added.is_empty() => EditKind::DeleteAdded,
            2 => EditKind::Whitespace,
            _ => EditKind::AppendDuplicate,
        };
        let (range, text) = match kind {
            EditKind::AppendDuplicate => {
                let rule = lines[1 + shape.below(rules as u64) as usize].trim_end().to_string();
                let at = lines.len();
                lines.push(rule.clone());
                added.push(at);
                (((at, 0), (at, 0)), format!("{rule}\n"))
            }
            EditKind::DeleteAdded => {
                let at = added.swap_remove(shape.below(added.len() as u64) as usize);
                lines.remove(at);
                for l in added.iter_mut().filter(|l| **l > at) {
                    *l -= 1;
                }
                (((at, 0), (at + 1, 0)), String::new())
            }
            EditKind::Whitespace => {
                let at = r.below(lines.len() as u64) as usize;
                let end = lines[at].len();
                lines[at].push(' ');
                (((at, end), (at, end)), " ".to_string())
            }
        };
        ops.push(SessionOp::Edit { kind, range, text });
        if ops.len() % 5 == 4 {
            let line = 1 + shape.below(rules as u64) as usize;
            ops.push(SessionOp::Hover { line, character: 0, pred: head_key(&lines[line]) });
        }
    }
    Session { task, text, ops }
}

/// The lines of `text`, without their newlines.
pub fn split_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

/// Apply one operation to a document held as lines (hovers change
/// nothing).
pub fn apply_edit(lines: &mut Vec<String>, op: &SessionOp) {
    let SessionOp::Edit { kind, range: ((line, character), _), text } = op else { return };
    match kind {
        EditKind::AppendDuplicate => lines.insert(*line, text.trim_end().to_string()),
        EditKind::DeleteAdded => {
            lines.remove(*line);
        }
        EditKind::Whitespace => lines[*line].insert_str(*character, text),
    }
}

/// The document text of `lines`.
pub fn join_lines(lines: &[String]) -> String {
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// `name/arity` of the head of a one-line clause.
fn head_key(clause: &str) -> String {
    let head = clause.split(":-").next().unwrap_or(clause).trim().trim_end_matches('.');
    match head.split_once('(') {
        None => format!("{head}/0"),
        Some((name, rest)) => {
            // Count top-level commas of the argument list.
            let (mut depth, mut arity) = (0usize, 1usize);
            for ch in rest.chars() {
                match ch {
                    '(' | '[' => depth += 1,
                    ')' | ']' if depth > 0 => depth -= 1,
                    ')' => break,
                    ',' if depth == 0 => arity += 1,
                    _ => {}
                }
            }
            format!("{name}/{arity}")
        }
    }
}

/// Where a server request's program comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A generated chain program: provable end to end.
    Chain,
    /// A freshly generated program, new to the server.
    Fresh {
        /// The generator marked a same-size or growing recursive call:
        /// the program is not expected to be provable.
        has_growth: bool,
    },
    /// A corpus entry, by name.
    Corpus(&'static str),
    /// The body of the earlier request at this index, sent again.
    Resubmit(usize),
}

/// One `POST /v1/analyze` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Where the program comes from.
    pub origin: Origin,
    /// The program and query.
    pub task: Task,
    /// The request body.
    pub body: String,
}

/// Generated programs per round of the request stream.
pub const POOL: usize = 200;
/// Generator seed of the request pool (see [`requests`]).
const SERVE_SHAPE: u64 = 3;

/// Requests per round.
pub fn round_len() -> usize {
    POOL + argus_corpus::corpus().len() + POOL / 2
}

/// The `serve_mix` request stream for `seed`: `rounds` rounds of
/// [`round_len`] requests each. A round holds, in a fixed shuffled order:
///
/// - every program of a fixed pool of [`POOL`] generated programs (the
///   generator's defaults: growth on, up to three SCCs) under fresh seeded predicate names, so each is
///   new to the server;
/// - every corpus entry once;
/// - [`POOL`]` / 2` resubmissions of earlier bodies of the stream.
///
/// The seed draws the predicate names. The pool, the order and the
/// resubmitted bodies are fixed for the reason [`CHAIN_SHAPE`] is: the
/// costs of generated programs are heavy-tailed (in one run the ten
/// slowest of 679 requests took 70% of the busy time), so which programs
/// arrive, which run side by side, and which resubmission finds its body
/// still being computed moved throughput by ±25% and the server's peak
/// RSS by ±20% between seeds.
pub fn requests(seed: u64, rounds: usize) -> Vec<Request> {
    let corpus = argus_corpus::corpus();
    let opts = GenOptions::default();
    let pool: Vec<(Task, bool)> = (0..POOL as u64)
        .map(|i| {
            let case = generate(&mut Rng64::new(sub_seed(SERVE_SHAPE, i)), &opts);
            (Task::of(&case), case.has_growth)
        })
        .collect();
    #[derive(Clone, Copy)]
    enum Slot {
        Fresh(usize),
        Corpus(usize),
        Resubmit,
    }
    let mut order = Rng64::new(sub_seed(SERVE_SHAPE, u64::MAX));
    let mut r = Rng64::new(sub_seed(seed, 4));
    let mut out: Vec<Request> = Vec::with_capacity(rounds * round_len());
    for _ in 0..rounds {
        let mut slots: Vec<Slot> = (0..POOL).map(Slot::Fresh).collect();
        slots.extend((0..corpus.len()).map(Slot::Corpus));
        slots.extend(std::iter::repeat_n(Slot::Resubmit, POOL / 2));
        for i in (1..slots.len()).rev() {
            slots.swap(i, order.below(i as u64 + 1) as usize);
        }
        if out.is_empty() {
            // The stream cannot open with a resubmission.
            let first =
                slots.iter().position(|s| !matches!(s, Slot::Resubmit)).expect("a fresh slot");
            slots.swap(0, first);
        }
        for slot in slots {
            let (origin, task) = match slot {
                Slot::Fresh(i) => {
                    (Origin::Fresh { has_growth: pool[i].1 }, rename(&pool[i].0, &mut r))
                }
                Slot::Corpus(j) => {
                    let e = &corpus[j];
                    let task = Task {
                        text: e.source.to_string(),
                        query: e.query.to_string(),
                        adornment: e.adornment.to_string(),
                    };
                    (Origin::Corpus(e.name), task)
                }
                Slot::Resubmit => {
                    let k = order.below(out.len() as u64) as usize;
                    (Origin::Resubmit(k), out[k].task.clone())
                }
            };
            let body = task.request_body();
            out.push(Request { origin, task, body });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Apply the edits among `ops` to `text`, as the server applies them.
    pub fn apply_edits(text: &str, ops: &[SessionOp]) -> String {
        let mut lines = split_lines(text);
        for op in ops {
            apply_edit(&mut lines, op);
        }
        join_lines(&lines)
    }

    #[test]
    fn renaming_keeps_the_order_of_names() {
        let original = Task::of(&scale_case(CHAIN_SHAPE, 300));
        let renamed = rename(&original, &mut Rng64::new(9));
        let head = |l: &str| l.split('(').next().unwrap_or(l).to_string();
        let pairs: BTreeSet<(String, String)> = original
            .text
            .lines()
            .zip(renamed.text.lines())
            .map(|(a, b)| (head(a), head(b)))
            .collect();
        let new_names: Vec<&String> = pairs.iter().map(|(_, b)| b).collect();
        assert!(new_names.windows(2).all(|w| w[0] < w[1]), "order changed");
        assert!(pairs.iter().all(|(a, b)| a != b && b.starts_with('p')));
        assert_ne!(original.query, renamed.query);
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(chain(7), chain(7));
        assert_eq!(session(7), session(7));
        assert_eq!(requests(7, 2), requests(7, 2));
    }

    #[test]
    fn another_seed_gives_inputs_of_the_same_shape() {
        let (a, b) = (chain(7), chain(8));
        assert_ne!(a.text, b.text);
        for t in [&a, &b] {
            let n = t.text.lines().count();
            assert!((CHAIN_CLAUSES..CHAIN_CLAUSES + 20).contains(&n), "{n} clauses");
        }
        let (a, b) = (session(7), session(8));
        assert_ne!(a.text, b.text);
        for s in [&a, &b] {
            let hovers = s.ops.iter().filter(|o| matches!(o, SessionOp::Hover { .. })).count();
            assert_eq!(hovers, SESSION_OPS / 5, "one hover after every four edits");
            let count = |k: EditKind| {
                s.ops
                    .iter()
                    .filter(|o| matches!(o, SessionOp::Edit { kind, .. } if *kind == k))
                    .count()
            };
            for k in [EditKind::AppendDuplicate, EditKind::DeleteAdded, EditKind::Whitespace] {
                assert!(count(k) > SESSION_OPS / 5, "{k:?} is rare");
            }
        }
        let (a, b) = (requests(7, 2), requests(8, 2));
        assert_ne!(a, b);
        for rs in [&a, &b] {
            assert_eq!(rs.len(), 2 * round_len());
            let fresh = rs.iter().filter(|q| matches!(q.origin, Origin::Fresh { .. })).count();
            assert_eq!(fresh, 2 * POOL);
            let bodies: HashSet<&str> = rs
                .iter()
                .filter(|q| matches!(q.origin, Origin::Fresh { .. }))
                .map(|q| q.body.as_str())
                .collect();
            assert_eq!(bodies.len(), fresh, "every fresh body is new to the server");
            for (i, q) in rs.iter().enumerate() {
                if let Origin::Resubmit(k) = q.origin {
                    assert!(k < i && rs[k].body == q.body);
                }
            }
        }
    }

    #[test]
    fn edits_replay_to_the_text_the_server_holds() {
        let s = session(3);
        let mut lines: Vec<String> = s.text.lines().map(str::to_string).collect();
        for op in &s.ops[..200] {
            if let SessionOp::Edit { range: ((l0, c0), (l1, c1)), text, .. } = op {
                // Apply as a generic range splice over the joined text.
                let mut joined = join_lines(&lines);
                let off = |l: usize, c: usize| {
                    lines.iter().take(l).map(|x| x.len() + 1).sum::<usize>() + c
                };
                let (a, b) = (off(*l0, *c0), off(*l1, *c1));
                joined.replace_range(a..b, text);
                lines = joined.lines().map(str::to_string).collect();
            }
        }
        assert_eq!(join_lines(&lines), apply_edits(&s.text, &s.ops[..200]));
    }

    #[test]
    fn hovers_name_the_clause_head() {
        assert_eq!(head_key("p0_1([X|Xs], f(a, b), Y) :- q(X)."), "p0_1/3");
        assert_eq!(head_key("p2_0(z)."), "p2_0/1");
        let s = session(5);
        for op in &s.ops {
            if let SessionOp::Hover { line, pred, .. } = op {
                let l = s.text.lines().nth(*line).expect("hover line exists");
                assert!(l.starts_with(&pred[..pred.find('/').unwrap()]), "{l} vs {pred}");
            }
        }
    }
}
