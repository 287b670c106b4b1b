//! End-to-end runs: the shipped `argus` binary as a child process, timed
//! from the outside the way its user waits on it.
//!
//! Every workload reports the same metric names (see `METRICS.md`):
//! `setup_s`, `p50_ms` and `tail_ms` of the workload's main operation,
//! `read_ms` of its read of state the program already holds,
//! `throughput_per_s`, `peak_rss_mb`, and `ok_frac`.

use crate::check;
use crate::child::{run_timed, Guard};
use crate::inputs::{self, Origin, SessionOp, Task};
use crate::stats::{interquartile_mean, median, quantile, ratio};
use crate::{Args, Outcome, Scratch};
use argus_core::SccCache;
use argus_lsp::LspClient;
use argus_serve::client::HttpClient;
use argus_serve::jsonval::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{ChildStdout, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per `cold_chain` run, each of which fills a cache in about
/// 1 s; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups per `edit_session` run, each a cold open of about 1.2 s.
const SESSION_SETUP_REPS: usize = 3;
/// Set-ups per `serve_mix` run, whose set-up takes milliseconds.
const CHEAP_SETUP_REPS: usize = 21;
/// Fewest cold commands a `cold_chain` run times, however slow the host.
const MIN_COLD_RUNS: usize = 6;
/// Analysis threads of the `lsp` child. One: on the shared 2-core
/// reference host, single-threaded runs were the steadiest, and the
/// session's chain has one SCC per level, so a second thread has no work.
pub const LSP_JOBS: usize = 1;
/// Longest any single child command may take.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn finish(
    out: &mut Outcome,
    setups: &[f64],
    main: &[f64],
    tail_q: f64,
    reads: &[f64],
    throughput: f64,
    rss: f64,
) {
    out.metric("setup_s", median(setups), "s");
    out.metric("p50_ms", median(main), "ms");
    out.metric("tail_ms", quantile(main, tail_q), "ms");
    out.metric("read_ms", interquartile_mean(reads), "ms");
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("ok_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64), "frac");
}

/// `cold_chain`: cold `argus analyze --json` on the chain program, and
/// warm re-runs of the same command against the on-disk per-SCC cache.
pub fn cold_chain(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let file = scratch.path().join("program.pl");
    let cache = scratch.path().join("cache");
    let analyze = |task: &Task, warm: bool| {
        let mut cmd = Command::new(&args.argus);
        cmd.arg("analyze").arg(&file).args([&task.query, &task.adornment, "--json"]);
        if warm {
            cmd.arg("--incremental").arg("--cache-dir").arg(&cache);
        }
        run_timed(&mut cmd, CHILD_TIMEOUT).map_err(|e| format!("spawn argus analyze: {e}"))
    };

    // Set-up: write the program and fill the on-disk cache the warm runs
    // read, from an empty cache each time.
    let (mut setups, mut fills, mut rss) = (Vec::new(), Vec::new(), 0f64);
    let mut task = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let made = inputs::chain(args.seed);
        std::fs::write(&file, &made.text).map_err(|e| format!("write program: {e}"))?;
        if cache.exists() {
            std::fs::remove_dir_all(&cache).map_err(|e| format!("empty the cache: {e}"))?;
        }
        let fill = analyze(&made, true)?;
        setups.push(t.elapsed().as_secs_f64());
        rss = rss.max(fill.peak_rss_mb);
        fills.push(fill);
        task = Some(made);
    }
    let task = task.expect("at least one set-up");

    let mut out = Outcome::default();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u8>> = None;
    let deadline = args.deadline();
    while cold.len() < MIN_COLD_RUNS || Instant::now() < deadline {
        let c = analyze(&task, false)?;
        cold.push(ms(c.wall));
        rss = rss.max(c.peak_rss_mb);
        let first = reference.get_or_insert_with(|| c.stdout.clone()).clone();
        out.check(chain_output(&c.stdout, c.code, &task));
        // Warm runs take milliseconds, so each cold run is followed by
        // several.
        for _ in 0..3 {
            let w = analyze(&task, true)?;
            warm.push(ms(w.wall));
            rss = rss.max(w.peak_rss_mb);
            out.check(same_output(&w.stdout, w.code, &first, "warm re-run"));
        }
    }
    let first = reference.unwrap_or_default();
    for fill in &fills {
        out.check(same_output(&fill.stdout, fill.code, &first, "cache fill"));
    }
    // Work completed per second at the chain's size: clauses the cold runs
    // analyzed per second of their total time. A mean over the whole run,
    // so it moves less with the host's drift than a median does.
    let throughput =
        (cold.len() * task.text.lines().count()) as f64 / (cold.iter().sum::<f64>() / 1e3);
    finish(&mut out, &setups, &cold, 0.9, &warm, throughput, rss);
    Ok(out)
}

/// A cold run on a generated chain must exit 0 with a `Terminates` report.
fn chain_output(stdout: &[u8], code: Option<i32>, task: &Task) -> Result<(), String> {
    let verdict = check::json_verdict(stdout)?;
    if code != Some(0) || verdict != "Terminates" {
        return Err(format!("{} {}: exit {code:?}, verdict {verdict}", task.query, task.adornment));
    }
    Ok(())
}

fn same_output(got: &[u8], code: Option<i32>, want: &[u8], what: &str) -> Result<(), String> {
    if code != Some(0) || got != want {
        return Err(format!("{what}: exit {code:?}, {} bytes differ from the cold run", got.len()));
    }
    Ok(())
}

/// The document URI of the editor session.
pub const URI: &str = "file:///work/program.pl";

/// A spawned `argus lsp` with an open, analyzed document.
pub struct LspSession {
    guard: Guard,
    /// The scripted client on the child's stdio.
    pub client: LspClient,
}

/// Spawn `argus lsp`, initialize, and open `text`, waiting for its first
/// `publishDiagnostics`.
pub fn open_session(args: &Args, text: &str) -> Result<LspSession, String> {
    let mut cmd = Command::new(&args.argus);
    cmd.args(["lsp", "--debounce-ms", "0", "--jobs", &LSP_JOBS.to_string()]);
    let mut guard = Guard::spawn(&mut cmd).map_err(|e| format!("spawn argus lsp: {e}"))?;
    let mut client = LspClient::over_child(guard.child());
    client.initialize(None);
    client.did_open(URI, 1, text);
    client.wait_publish(URI, 1);
    client.notifications.clear();
    Ok(LspSession { guard, client })
}

impl LspSession {
    /// Orderly `shutdown` → `exit`; the exit code and peak RSS.
    pub fn close(mut self) -> (Option<i32>, f64) {
        self.client.shutdown_exit();
        drop(self.client);
        let exit = self.guard.wait(CHILD_TIMEOUT);
        (exit.code, exit.peak_rss_mb)
    }
}

/// `edit_session`: cold open of the document in `argus lsp`, then the
/// seeded edit stream, each `didChange` waiting for its
/// `publishDiagnostics`, with hovers in between.
pub fn edit_session(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut opened = None;
    for _ in 0..SESSION_SETUP_REPS {
        let t = Instant::now();
        let session = inputs::session(args.seed);
        let lsp = open_session(args, &session.text)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, previous)) = opened.replace((session, lsp)) {
            let _ = LspSession::close(previous);
        }
    }
    let (session, mut lsp) = opened.expect("at least one set-up");

    let mut out = Outcome::default();
    let (mut edits, mut hovers) = (Vec::new(), Vec::new());
    let mut version = 1i64;
    let mut last_publish = Json::Null;
    let mut answers = Vec::new();
    let mut used = 0;
    // At least 100 edits, so the p90 has ten samples beyond it.
    let quota = args.quota(10.0, 100);
    let start = Instant::now();
    for op in &session.ops {
        if edits.len() == quota {
            break;
        }
        used += 1;
        match op {
            SessionOp::Edit { range, text, .. } => {
                version += 1;
                let t = Instant::now();
                lsp.client.did_change_range(URI, version, *range, text);
                let publish = lsp.client.wait_publish(URI, version);
                edits.push(ms(t.elapsed()));
                lsp.client.notifications.clear();
                let got = publish.get("version").and_then(Json::as_u64);
                out.check(if got == Some(version as u64) {
                    Ok(())
                } else {
                    Err(format!("publish for version {version} carried {got:?}"))
                });
                last_publish = publish;
            }
            SessionOp::Hover { line, character, .. } => {
                let t = Instant::now();
                let result = lsp.client.hover(URI, *line, *character);
                hovers.push(ms(t.elapsed()));
                answers.push(result);
            }
        }
    }
    let busy = start.elapsed().as_secs_f64();
    let (code, rss) = lsp.close();
    out.check(if code == Some(0) { Ok(()) } else { Err(format!("argus lsp exited {code:?}")) });
    // Each hover answer against the in-process inference on the text the
    // server held when it answered, checked on two threads.
    let mut lines = inputs::split_lines(&session.text);
    let mut hovered = Vec::new();
    for op in &session.ops[..used] {
        inputs::apply_edit(&mut lines, op);
        if let SessionOp::Hover { pred, .. } = op {
            hovered.push((inputs::join_lines(&lines), pred.as_str()));
        }
    }
    for result in check_hovers(&hovered, &answers) {
        out.check(result);
    }
    let text = inputs::join_lines(&lines);
    let want = check::lsp_diagnostics(&text, URI, &session.task)?;
    out.check(if last_publish.get("diagnostics") == Some(&want) {
        Ok(())
    } else {
        Err("the last published diagnostics differ from the batch lint of the same text".into())
    });
    let throughput = (edits.len() + hovers.len()) as f64 / busy;
    finish(&mut out, &setups, &edits, 0.9, &hovers, throughput, rss);
    Ok(out)
}

/// Check each hover answer against the in-process inference on the text
/// it was asked on, on `CLIENTS` threads sharing one memo; the results in
/// hover order.
fn check_hovers(hovered: &[(String, &str)], answers: &[Json]) -> Vec<Result<(), String>> {
    assert_eq!(hovered.len(), answers.len(), "one answer per hover");
    let memo = Arc::new(SccCache::unbounded());
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<(), String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let (Some((text, pred)), Some(answer)) = (hovered.get(k), answers.get(k))
                        else {
                            return mine;
                        };
                        mine.push((k, check::hover(text, pred, answer, LSP_JOBS, &memo)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("checker thread does not panic")).collect()
    });
    results.sort_by_key(|(k, _)| *k);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A spawned `argus serve` on a loopback port.
pub struct Server {
    guard: Guard,
    stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: String,
}

/// Spawn `argus serve` on a free loopback port and wait until it answers
/// `/healthz`.
pub fn start_server(args: &Args) -> Result<Server, String> {
    let mut cmd = Command::new(&args.argus);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--jobs", &CLIENTS.to_string()]);
    let mut guard = Guard::spawn(&mut cmd).map_err(|e| format!("spawn argus serve: {e}"))?;
    let mut stdout = BufReader::new(guard.child().stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).map_err(|e| format!("read serve banner: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .ok_or(format!("unexpected serve banner {line:?}"))?
        .to_string();
    let mut http = HttpClient::connect(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let health = http.request("GET", "/healthz", b"").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    Ok(Server { guard, stdout, addr })
}

impl Server {
    /// The `/metrics` document.
    pub fn metrics(&self) -> Result<Json, String> {
        let mut http = HttpClient::connect(&self.addr, Duration::from_secs(10))
            .map_err(|e| format!("connect: {e}"))?;
        let resp = http.request("GET", "/metrics", b"").map_err(|e| format!("metrics: {e}"))?;
        jsonval::parse(&String::from_utf8_lossy(&resp.body)).map_err(|e| e.to_string())
    }

    /// Drain through `POST /v1/shutdown`; the exit code and peak RSS.
    pub fn stop(self) -> (Option<i32>, f64) {
        if let Ok(mut http) = HttpClient::connect(&self.addr, Duration::from_secs(10)) {
            let _ = http.request("POST", "/v1/shutdown", b"");
        }
        // Keep stdout open until the server has exited, so its last
        // line does not meet a closed pipe.
        let exit = self.guard.wait(CHILD_TIMEOUT);
        drop(self.stdout);
        (exit.code, exit.peak_rss_mb)
    }
}

/// One completed request.
pub struct Completed {
    /// Index into the request stream.
    pub index: usize,
    /// HTTP status, or 0 when the exchange failed.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Send to full response.
    pub latency: Duration,
}

/// Concurrent closed-loop clients (the reference host has two cores),
/// and the server's workers: a worker serves one keep-alive connection
/// until it closes, so each client needs its own.
const CLIENTS: usize = 2;

/// Send every request of `requests` through `CLIENTS` closed-loop
/// keep-alive clients; the completions in stream order and the elapsed
/// seconds.
pub fn drive(addr: &str, requests: &[inputs::Request]) -> Result<(Vec<Completed>, f64), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Completed>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut http = HttpClient::connect(addr, Duration::from_secs(60))
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= requests.len() {
                            return Ok(done);
                        }
                        let t = Instant::now();
                        let resp =
                            http.request("POST", "/v1/analyze", requests[index].body.as_bytes());
                        let latency = t.elapsed();
                        match resp {
                            Ok(r) => done.push(Completed {
                                index,
                                status: r.status,
                                body: r.body,
                                latency,
                            }),
                            Err(e) => {
                                done.push(Completed {
                                    index,
                                    status: 0,
                                    body: Vec::new(),
                                    latency,
                                });
                                eprintln!("request {index}: {e}");
                                http = HttpClient::connect(addr, Duration::from_secs(60))
                                    .map_err(|e| format!("reconnect {addr}: {e}"))?;
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    all.sort_by_key(|c| c.index);
    Ok((all, elapsed))
}

/// Check every completed request: status 200, body byte-equal to the
/// in-process report of the same input, and the verdict its origin
/// demands. Expected reports are computed once per distinct body, on
/// two threads.
fn check_responses(out: &mut Outcome, requests: &[inputs::Request], done: &[Completed]) {
    let origin_of = |mut i: usize| loop {
        match requests[i].origin {
            Origin::Resubmit(k) => i = k,
            ref o => return o.clone(),
        }
    };
    let mut distinct: Vec<usize> = Vec::new();
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for c in done {
        let body = requests[c.index].body.as_str();
        if !seen.contains_key(body) {
            seen.insert(body, distinct.len());
            distinct.push(c.index);
        }
    }
    let next = AtomicUsize::new(0);
    let mut expected: Vec<Option<Result<String, String>>> = vec![None; distinct.len()];
    let results: Vec<Vec<(usize, Result<String, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = distinct.get(k) else { return mine };
                        let task = &requests[i].task;
                        let want = check::report(task).and_then(|report| {
                            check::verdict(&origin_of(i), task, &report)?;
                            Ok(format!("{}\n", report.to_json()))
                        });
                        mine.push((k, want));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("checker thread does not panic")).collect()
    });
    for (k, want) in results.into_iter().flatten() {
        expected[k] = Some(want);
    }
    for c in done {
        let k = seen[requests[c.index].body.as_str()];
        let want = expected[k].as_ref().expect("every distinct body was checked");
        out.check(match want {
            _ if c.status != 200 => Err(format!("request {} answered {}", c.index, c.status)),
            Err(e) => Err(format!("request {}: {e}", c.index)),
            Ok(w) if w.as_bytes() != c.body.as_slice() => {
                Err(format!("request {}: response differs from the in-process report", c.index))
            }
            Ok(_) => Ok(()),
        });
    }
}

/// `serve_mix`: two closed-loop keep-alive clients post the seeded
/// request stream to `argus serve`.
pub fn serve_mix(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut started = None;
    for _ in 0..CHEAP_SETUP_REPS {
        let t = Instant::now();
        let requests = inputs::requests(args.seed, args.quota(0.2, 2));
        let server = start_server(args)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, previous)) = started.replace((requests, server)) {
            let _ = Server::stop(previous);
        }
    }
    let (requests, server) = started.expect("at least one set-up");
    let (done, elapsed) = drive(&server.addr, &requests)?;
    let (code, rss) = server.stop();
    let mut out = Outcome::default();
    out.check(if code == Some(0) { Ok(()) } else { Err(format!("argus serve exited {code:?}")) });
    check_responses(&mut out, &requests, &done);
    let latencies: Vec<f64> = done.iter().map(|c| ms(c.latency)).collect();
    let reads: Vec<f64> = done
        .iter()
        .filter(|c| matches!(requests[c.index].origin, Origin::Resubmit(_)))
        .map(|c| ms(c.latency))
        .collect();
    finish(&mut out, &setups, &latencies, 0.95, &reads, done.len() as f64 / elapsed, rss);
    Ok(out)
}
