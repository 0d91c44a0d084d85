//! The measuring process: boots the daemon in-process again and again
//! (`setup_s` summarizes the setups), drives it with one closed-loop
//! keep-alive client, checks every answer, and returns the metrics. With
//! tracing on it also replays the same sequence in-process through the
//! layers (see [`crate::replay`]) for the per-layer metrics.

use crate::affinity::{allowed_cpus, pin_current_thread};
use crate::client::{answers_slice, render_request, Conn};
use crate::gen::{header, EXPECTED_FILE};
use crate::replay::{Counts, Replay, ServedTotals};
use crate::stats::{best_mean, median, Summary, Windows};
use crate::trace::Tracer;
use crate::workload::{Workload, APPROACHES, EXEC_CLASS_LABELS};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sxv_core::{build_access_view, derive_view, AccessSpec};
use sxv_dtd::parse_dtd;
use sxv_serve::{run as serve, ServeConfig};
use sxv_xml::DocIndex;

/// The served part of a run is cut into segments, each on freshly booted
/// daemons, so the setups behind `setup_s` are spread over the whole run
/// instead of bunched at its start. Segments take turns on the CPUs the
/// process may use (client and daemon always share one), so a slow phase
/// of one CPU of a shared host does not cover a whole run.
const SEGMENTS: usize = 7;

/// Setups per segment; the last one of each serves the segment.
const SETUPS_PER_SEGMENT: usize = 4;

/// Untimed replay after each setup, so the first timed requests do not
/// see cold caches.
const PREROLL_SECONDS: f64 = 0.2;

/// Requests after the warm-up of each traced pass over which exact
/// counters (hit ratio, compiles, executor work) are taken, and which the
/// traced run also serves to one daemon to check the replay against it.
const COUNT_PREFIX: usize = 2048;

/// Most requests one traced pass records (bounds span memory).
const MAX_TRACED: usize = 150_000;

pub struct Inputs {
    pub wl: Workload,
    xml: Vec<String>,
    bodies: Vec<String>,
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn load(wl: Workload, seed: u64, dir: &Path, corrupt: bool) -> Result<Inputs, String> {
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let xml =
            wl.docs.iter().map(|d| read(&format!("{}.xml", d.name))).collect::<Result<_, _>>()?;
        let expected_text = read(EXPECTED_FILE)?;
        let mut lines = expected_text.split('\n');
        if lines.next() != Some(header(&wl, seed).as_str()) {
            return Err(format!("{EXPECTED_FILE} was generated for other inputs"));
        }
        let mut expected: Vec<Vec<u8>> =
            lines.take(wl.table_len()).map(|l| l.as_bytes().to_vec()).collect();
        if expected.len() != wl.table_len() {
            return Err(format!("{EXPECTED_FILE} is truncated"));
        }
        if corrupt {
            // Self-test: the first request of the sequence must now fail.
            expected[wl.sequence[0] as usize].extend_from_slice(b", \"corrupted\"");
        }
        let bodies: Vec<String> = (0..wl.table_len()).map(|e| wl.body(e)).collect();
        let requests = bodies.iter().map(|b| render_request("POST", "/query", b)).collect();
        Ok(Inputs { wl, xml, bodies, requests, expected })
    }

    fn check(&self, conn: &Conn, status: u16, entry: usize) -> bool {
        status == 200 && answers_slice(conn.body()) == Some(self.expected[entry].as_slice())
    }
}

/// Wall time of each boot phase, in seconds.
struct Boot {
    parse: f64,
    index: f64,
    ready: f64,
    warmup: f64,
    total: f64,
    warmup_failures: u64,
}

struct Daemon {
    thread: JoinHandle<Result<(), String>>,
    conn: Conn,
    addr: SocketAddr,
}

fn specs(wl: &Workload) -> Result<Vec<AccessSpec>, String> {
    wl.roles
        .iter()
        .map(|r| {
            let dtd = parse_dtd(r.family.dtd_text(), r.family.root()).map_err(|e| e.to_string())?;
            AccessSpec::parse(&dtd, r.spec, &[]).map_err(|e| e.to_string())
        })
        .collect()
}

/// One setup: from handing the XML text to the parser until the warm-up
/// pass (the first request of every class) has been answered.
fn boot(inputs: &Inputs) -> Result<(Daemon, Boot), String> {
    let wl = &inputs.wl;
    let t0 = Instant::now();
    let docs = inputs
        .xml
        .iter()
        .zip(&wl.docs)
        .map(|(text, d)| Ok((d.name.to_string(), sxv_xml::parse(text).map_err(|e| e.to_string())?)))
        .collect::<Result<Vec<_>, String>>()?;
    let t1 = Instant::now();
    let indexes = docs
        .iter()
        .map(|(name, doc)| Ok((name.clone(), DocIndex::new(doc).ok_or("unindexable document")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let t2 = Instant::now();
    let roles = wl.roles.iter().map(|r| r.name.to_string()).zip(specs(wl)?).collect();
    let mut config = ServeConfig::new(roles, docs);
    config.indexes = indexes;
    config.workers = 1;
    // A host stall must never turn a request into a 504.
    config.timeout_ms = 60_000;
    config.stats_interval_secs = 0;
    let (ready_tx, ready_rx) = mpsc::channel();
    let thread = std::thread::spawn(move || serve(config, ready_tx));
    let addr = match ready_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(addr) => addr,
        Err(_) => return Err(thread.join().map_or("daemon panicked".into(), |r| format!("{r:?}"))),
    };
    let t3 = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut warmup_failures = 0;
    for entry in wl.warmup_entries() {
        let status = conn.roundtrip(&inputs.requests[entry]).map_err(|e| e.to_string())?;
        if !inputs.check(&conn, status, entry) {
            eprintln!("perfbench: warm-up answer mismatch for {}", inputs.bodies[entry]);
            warmup_failures += 1;
        }
    }
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let boot = Boot {
        parse: secs(t0, t1),
        index: secs(t1, t2),
        ready: secs(t2, t3),
        warmup: secs(t3, t4),
        total: secs(t0, t4),
        warmup_failures,
    };
    Ok((Daemon { thread, conn, addr }, boot))
}

fn shutdown(mut daemon: Daemon) -> Result<(), String> {
    let req = render_request("POST", "/shutdown", "");
    daemon.conn.roundtrip(&req).map_err(|e| e.to_string())?;
    drop(daemon.conn);
    daemon.thread.join().map_err(|_| "daemon panicked".to_string())?
}

/// Closed loop: the next request goes out when the previous answer is in.
/// Records into `windows` and returns the number of wrong answers.
fn served_loop(
    inputs: &Inputs,
    conn: &mut Conn,
    seconds: f64,
    windows: &mut Windows,
) -> Result<u64, String> {
    let mut failed = 0;
    windows.restart();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for &entry in inputs.wl.sequence.iter().cycle() {
        let entry = entry as usize;
        let t0 = Instant::now();
        let status = conn.roundtrip(&inputs.requests[entry]).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        if !inputs.check(conn, status, entry) {
            if failed == 0 {
                eprintln!(
                    "perfbench: answer mismatch (status {status}) for {}",
                    inputs.bodies[entry]
                );
            }
            failed += 1;
        }
        windows.record((t1 - t0).as_nanos() as u64, t1, t1 >= deadline);
        if t1 >= deadline {
            break;
        }
    }
    Ok(failed)
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

pub fn measure(inputs: &Inputs, seconds: f64, traced: bool, dir: &Path) -> Result<Outcome, String> {
    let wl = &inputs.wl;
    let cpus = allowed_cpus()?;
    // Tracing never runs in the served loop. A traced run serves half its
    // time and replays in-process for the other half.
    let serve_seconds = if traced { seconds / 2.0 } else { seconds };
    let mut boots = Vec::new();
    let mut served = Windows::new();
    let mut stats = ServerStats::default();
    let (mut failed, mut untimed_failures) = (0, 0);
    for segment in 0..SEGMENTS {
        if let Some(&cpu) = cpus.get(segment % cpus.len().max(1)) {
            pin_current_thread(cpu)?;
        }
        let mut daemon = None;
        for _ in 0..SETUPS_PER_SEGMENT {
            if let Some(d) = daemon.take() {
                shutdown(d)?;
            }
            let (d, b) = boot(inputs)?;
            untimed_failures += b.warmup_failures;
            boots.push(b);
            daemon = Some(d);
        }
        let mut daemon = daemon.expect("at least one setup per segment");
        let mut preroll = Windows::new();
        untimed_failures += served_loop(inputs, &mut daemon.conn, PREROLL_SECONDS, &mut preroll)?;
        let share = serve_seconds / SEGMENTS as f64;
        failed += served_loop(inputs, &mut daemon.conn, share, &mut served)?;
        if traced {
            stats.absorb(&server_stats(daemon.addr)?);
        }
        shutdown(daemon)?;
    }
    // Setups are summarized like the windows: interference only slows one.
    let boot_best = |f: fn(&Boot) -> f64| best_mean(&boots.iter().map(f).collect::<Vec<_>>());
    let attempted = served.requests;
    let Summary { p50_us, p99_us, ops_per_s, kept_requests } = served.summary();
    eprintln!(
        "perfbench: {} p50={p50_us:.1}us p99={p99_us:.1}us (from {kept_requests} of {attempted} \
         timed requests) {ops_per_s:.0} req/s setup={:.3}s failed={failed}",
        wl.name,
        boot_best(|b| b.total)
    );

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.into(), value, unit));
    if !traced {
        put("p50_us", p50_us, "us");
        put("p99_us", p99_us, "us");
        put("ops_per_s", ops_per_s, "1/s");
        put("setup_s", boot_best(|b| b.total), "s");
        put("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
        return Ok(Outcome {
            correct: failed == 0 && untimed_failures == 0,
            attempted,
            failed,
            metrics,
        });
    }
    put("xml.parse_ms", boot_best(|b| b.parse) * 1e3, "ms");
    put("xml.index_ms", boot_best(|b| b.index) * 1e3, "ms");
    put("serve.boot_ms", boot_best(|b| b.ready) * 1e3, "ms");
    put("warmup_ms", boot_best(|b| b.warmup) * 1e3, "ms");

    // One more daemon serves the warm-up and the counted prefix, so the
    // replay's counters can be checked against the daemon's own.
    let (mut daemon, b) = boot(inputs)?;
    untimed_failures += b.warmup_failures;
    for &entry in &wl.sequence[..COUNT_PREFIX] {
        let entry = entry as usize;
        let status = daemon.conn.roundtrip(&inputs.requests[entry]).map_err(|e| e.to_string())?;
        if !inputs.check(&daemon.conn, status, entry) {
            untimed_failures += 1;
        }
    }
    let daemon_totals = server_stats(daemon.addr)?.served;
    shutdown(daemon)?;
    put("fail_ratio", failed as f64 / attempted as f64, "ratio");
    put("p99_samples", kept_requests as f64, "count");
    put("serve.server_p50_us", stats.weighted_p50 / stats.requests.max(1.0), "us");
    put("serve.rejected", stats.rejected, "count");
    put("serve.timed_out", stats.timed_out, "count");

    // In-process replay over freshly parsed documents.
    let docs = inputs
        .xml
        .iter()
        .map(|t| sxv_xml::parse(t).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let indexes = docs
        .iter()
        .map(|d| DocIndex::new(d).ok_or("unindexable document"))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = specs(wl)?;
    let t = Instant::now();
    let views = specs
        .iter()
        .map(|s| derive_view(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    put("core.view.derive_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let mut pairs: Vec<(usize, usize)> =
        wl.classes.iter().filter(|c| c.approach == "annotate").map(|c| (c.role, c.doc)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let t = Instant::now();
    let access: Vec<_> = pairs
        .iter()
        .map(|&(r, d)| {
            (r, d, Arc::new(build_access_view(&specs[r], &views[r], &docs[d], Some(&indexes[d]))))
        })
        .collect();
    put("core.annotate.build_ms", t.elapsed().as_secs_f64() * 1e3, "ms");

    let replay = |tracer: Option<&mut Tracer>, counts: Option<&mut Counts>| {
        let mut r = Replay::new(
            wl,
            &docs,
            &indexes,
            &specs,
            &views,
            &access,
            &inputs.bodies,
            &inputs.expected,
        );
        replay_pass(&mut r, &wl.sequence, seconds / 4.0, tracer, counts)
            .map(|times| (times, r.exec_us, r.mismatches))
    };
    let (untraced, _, untraced_mismatches) = replay(None, None)?;
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let (traced, exec_us, traced_mismatches) = replay(Some(&mut tracer), Some(&mut counts))?;
    let attributed_us = untraced.summary().p50_us;
    let traced_us = traced.summary().p50_us;
    tracer.write_tsv(&dir.join("spans.tsv")).map_err(|e| e.to_string())?;
    let by_name = tracer.self_us_by_name();
    let span_median = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));

    put("serve.json.parse_us", span_median("serve.json.parse"), "us");
    put("xpath.parser.parse_us", span_median("xpath.parser.parse"), "us");
    put("core.engine.lookup_us", span_median("core.engine.lookup"), "us");
    put("core.engine.miss_us", span_median("core.engine.miss"), "us");
    put("core.annotate.lookup_us", span_median("core.annotate.lookup"), "us");
    put("xpath.plan.execute_us", span_median("xpath.plan.execute"), "us");
    for label in EXEC_CLASS_LABELS {
        for approach in APPROACHES {
            let class = format!("{label}-{approach}");
            let v = exec_us.get(&class).map_or(0.0, |v| median(v));
            put(&format!("xpath.plan.execute_us.{class}"), v, "us");
        }
    }
    put("xml.node.serialize_us", span_median("xml.node.serialize"), "us");
    put("core.rewrite.us", span_median("core.rewrite"), "us");
    put("core.optimize.us", span_median("core.optimize"), "us");
    put("xpath.plan.compile_us", span_median("xpath.plan.compile"), "us");
    put("xpath.certify.us", span_median("xpath.certify"), "us");

    let n = counts.requests.max(1) as f64;
    put("core.engine.hit_ratio", counts.hits as f64 / n, "ratio");
    put("core.engine.plans_compiled", counts.plans_compiled as f64, "count");
    put("core.engine.plans_recompiled", counts.plans_recompiled as f64, "count");
    put(
        "core.engine.recompile_ratio",
        counts.recompiles as f64 / counts.misses.max(1) as f64,
        "ratio",
    );
    put("xpath.plan.nodes_touched", counts.eval.nodes_touched as f64 / n, "count");
    put("xpath.plan.qualifier_checks", counts.eval.qualifier_checks as f64 / n, "count");
    put("xpath.plan.interval_probes", counts.eval.interval_probes as f64 / n, "count");
    put(
        "xpath.plan.useful_ratio",
        counts.rows as f64 / counts.eval.nodes_touched.max(1) as f64,
        "ratio",
    );
    put("xml.node.serialize_bytes", counts.bytes as f64 / n, "bytes");

    // Round trip = attributed in-process layers + residual (socket, HTTP
    // framing, queue hand-off, thread wake-ups, response assembly).
    put("serve.round_trip_us", p50_us, "us");
    put("serve.attributed_us", attributed_us, "us");
    put("serve.residual_us", p50_us - attributed_us, "us");
    put("serve.residual_share", (p50_us - attributed_us) / p50_us, "ratio");
    put("trace.overhead_ratio", traced_us / attributed_us, "ratio");

    if counts.served != daemon_totals {
        return Err(format!(
            "the replay's plan counters {:?} differ from the daemon's {daemon_totals:?} over the \
             same requests; does replay::SERVE_POLICY still match sxv serve's plan policy?",
            counts.served
        ));
    }
    let replay_mismatches = untraced_mismatches + traced_mismatches;
    let correct = failed == 0 && untimed_failures == 0 && replay_mismatches == 0;
    Ok(Outcome { correct, attempted, failed, metrics })
}

/// One replay pass with fresh engines: the untimed warm-up, then the
/// sequence from its start for `seconds` (and, when counting, at least
/// [`COUNT_PREFIX`] requests). Returns the per-request in-process times.
fn replay_pass(
    r: &mut Replay<'_>,
    seq: &[u32],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut counts: Option<&mut Counts>,
) -> Result<Windows, String> {
    r.warm_up()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut windows = Windows::new();
    for (i, &entry) in seq.iter().cycle().enumerate() {
        let counting = i < COUNT_PREFIX;
        let c = if counting { counts.as_deref_mut() } else { None };
        let ns = r.request(entry as usize, i as u32, tracer.as_deref_mut(), c)?;
        if counting && i + 1 == COUNT_PREFIX {
            if let Some(c) = counts.as_deref_mut() {
                c.plans_compiled = r.plans_compiled();
                c.plans_recompiled = r.plans_recompiled();
                c.served = r.served_totals();
            }
        }
        let now = Instant::now();
        let done = now >= deadline && (counts.is_none() || i + 1 >= COUNT_PREFIX);
        let last = done || (tracer.is_some() && i + 1 >= MAX_TRACED);
        windows.record(ns, now, last);
        if last {
            break;
        }
    }
    Ok(windows)
}

/// Totals over the daemons' `GET /stats`: request-weighted tenant p50,
/// shed and expired request counts, and plan counters.
#[derive(Default)]
struct ServerStats {
    weighted_p50: f64,
    requests: f64,
    rejected: f64,
    timed_out: f64,
    served: ServedTotals,
}

impl ServerStats {
    fn absorb(&mut self, other: &ServerStats) {
        self.weighted_p50 += other.weighted_p50;
        self.requests += other.requests;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
    }
}

/// One daemon's `GET /stats`, read on a separate connection.
fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    use sxv_serve::json::Json;
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let status = conn.roundtrip(&render_request("GET", "/stats", "")).map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(conn.body()).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let stats = Json::parse(text)?;
    let Some(Json::Array(tenants)) = stats.get("tenants") else {
        return Err("no tenants in /stats".into());
    };
    let Some(Json::Array(roles)) = stats.get("roles") else {
        return Err("no roles in /stats".into());
    };
    let mut out = ServerStats::default();
    for t in tenants {
        let num = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        out.weighted_p50 += num("p50_us") * num("requests");
        out.requests += num("requests");
        out.rejected += num("rejected");
        out.timed_out += num("timed_out");
        out.served.fused_ops += num("fused_ops") as u64;
    }
    for r in roles {
        let cache = r.get("plan_cache").ok_or("no plan_cache in /stats")?;
        let num = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.served.hits += num("hits");
        out.served.misses += num("misses");
        out.served.recompiled += num("plans_recompiled");
    }
    Ok(out)
}
