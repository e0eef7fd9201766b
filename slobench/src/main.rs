//! The repository benchmark. One run drives one workload against the
//! real runtime over the v2 TCP wire format, checks every output, and
//! prints its metrics as the last line of standard output:
//!
//! ```text
//! slobench --workload <tenants|ipq|ipq-journal|spike-elastic> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the
//! separate traced run and prints the per-layer metrics. The line
//! before the result holds the run's provenance and detail. See the
//! README beside this package for the workloads and metrics.

mod drive;
mod procfs;
mod replay;
mod report;
mod trace;
mod workload;

use drive::{drive, DriveOpts, RunData};
use report::{analyze, json_num, json_str, quantile, result_line, Analysis, Metrics};
use std::path::{Path, PathBuf};
use trace::{Clock, Tracer};
use workload::Workload;

/// Set-up repetitions per run; `setup_s` is their 10th percentile.
const SETUPS: usize = 41;

/// Attempts at a run the host disturbed.
const MAX_ATTEMPTS: usize = 3;
/// No new attempt starts this long after the first, so a run ends well
/// within three minutes.
const RETRY_BEFORE: std::time::Duration = std::time::Duration::from_secs(45);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// Which attempt this process is (0: the supervising process).
    attempt: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut attempt = 0;
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--smoke" => smoke = true,
            "--attempt" => {
                attempt = val()?
                    .parse::<usize>()
                    .map_err(|e| format!("--attempt: {e}"))?
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        attempt,
    })
}

fn provenance(args: &Args, wl: &Workload) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cores: Vec<String> = cameo_core::affinity::allowed_cores()
        .iter()
        .map(|c| c.to_string())
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpus\": {cpus}, \"allowed_cores\": [{}], \"kernel\": {}, \"commit\": {}}}",
        json_str(wl.name),
        args.seed,
        args.seconds,
        args.trace as u8,
        cores.join(", "),
        json_str(&procfs::kernel_release()),
        json_str(&procfs::commit()),
    )
}

/// Saturation throughput of a run: per round, the budget over the time
/// from its first send to the emission of its last output; the upper
/// quartile over the rounds, so a round a host stall slowed moves it
/// little.
fn sat_hz(run: &RunData, a: &Analysis) -> f64 {
    quantile(&sat_rates(run, a), 0.75)
}

/// Each saturation round's budget over the time from its first send to
/// the emission of its last output.
fn sat_rates(run: &RunData, a: &Analysis) -> Vec<f64> {
    run.sat_rounds
        .iter()
        .zip(a.sat_last_us)
        .map(|(&(first, frames), last)| match last {
            Some(last) if last > first as i64 => frames as f64 * 1e6 / (last - first as i64) as f64,
            _ => 0.0,
        })
        .collect()
}

fn end_to_end(run: &RunData, a: &Analysis) -> Metrics {
    let cpu_s = run.cpu.spent("cameo-").run_ns as f64 / 1e9;
    let mut m = Metrics::default();
    m.put("setup_s", "s", quantile(&run.setup_s, 0.10));
    m.put("p50_us", "us", a.sliced(0.50, |_| true));
    m.put("p95_us", "us", a.sliced(0.95, |_| true));
    m.put("tight_p50_us", "us", a.sliced(0.50, |s| s.tight));
    m.put("on_time_rate", "ratio", 1.0 - a.miss_rate());
    m.put("sat_hz", "1/s", sat_hz(run, a));
    m.put(
        "cpu_us_per_frame",
        "us",
        cpu_s * 1e6 / run.timed_frames.max(1) as f64,
    );
    m.put("peak_rss_mb", "MB", run.peak_rss_kb as f64 / 1024.0);
    m
}

fn per_layer(run: &RunData, a: &Analysis, rep: &replay::Replayed, sat_1w: f64) -> Metrics {
    let (c0, c1) = (&run.edges.0, &run.edges.1);
    let (s0, s1) = (&c0.sched, &c1.sched);
    let d =
        |f: fn(&cameo_core::scheduler::SchedulerStats) -> u64| f(s1).saturating_sub(f(s0)) as f64;
    let frames = run.timed_frames.max(1) as f64;
    let lags: Vec<f64> = run.lags_us.iter().map(|&l| l as f64).collect();
    let sends: Vec<f64> = run
        .spans
        .iter()
        .filter(|s| s.name == "IngestClient::send_many")
        .map(|s| (s.end_us - s.start_us) as f64)
        .collect();
    let net = run.cpu.spent("cameo-net");
    let workers = run.cpu.spent("cameo-worker");
    let all = run.cpu.spent("cameo-");
    let split = |f: fn(&report::Sample) -> f64| -> Vec<f64> { a.samples.iter().map(f).collect() };
    let (ingress, runtime, egress, e2e) = (
        split(|s| s.ingress),
        split(|s| s.runtime),
        split(|s| s.egress),
        split(|s| s.e2e),
    );
    let messages = d(|s| s.messages_scheduled);
    let reuse = d(|s| s.node_reuse_hits);
    let fallback = d(|s| s.node_alloc_fallback);
    let (rec_s, rec_frames, rec_torn) = match (&run.recover, &rep.recover) {
        (Some((s, r)), _) | (None, Some((s, r))) => {
            (*s, r.frames_replayed as f64, r.torn_bytes as f64)
        }
        _ => (0.0, 0.0, 0.0),
    };
    let (e0, e1) = (&c0.elastic, &c1.elastic);
    let mut m = Metrics::default();
    m.put("loadgen.lag_p99_us", "us", quantile(&lags, 0.99));
    m.put(
        "loadgen.lag_max_us",
        "us",
        lags.iter().copied().fold(0.0, f64::max),
    );
    m.put("loadgen.send_call_p50_us", "us", quantile(&sends, 0.50));
    m.put("loadgen.send_call_p99_us", "us", quantile(&sends, 0.99));
    m.put(
        "loadgen.frames_per_send",
        "frames",
        frames / run.timed_calls.max(1) as f64,
    );
    m.put("net.busy_s", "s", net.run_ns as f64 / 1e9);
    m.put("net.wait_s", "s", net.wait_ns as f64 / 1e9);
    m.put(
        "net.frames_per_burst",
        "frames",
        c1.net_frames.saturating_sub(c0.net_frames) as f64
            / c1.net_bursts.saturating_sub(c0.net_bursts).max(1) as f64,
    );
    m.put("net.dropped", "count", run.net_losses.0 as f64);
    m.put("net.gen_rejected", "count", run.net_losses.1 as f64);
    m.put("net.nacks_sent", "count", run.net_losses.2 as f64);
    m.put("msg.decode_ns_per_frame", "ns", rep.decode_ns_per_frame);
    m.put(
        "msg.bytes_per_frame",
        "B",
        rep.bytes as f64 / rep.frames.max(1) as f64,
    );
    m.put(
        "ingest.call_p50_us",
        "us",
        quantile(&rep.ingest_calls_us, 0.50),
    );
    m.put(
        "ingest.call_p99_us",
        "us",
        quantile(&rep.ingest_calls_us, 0.99),
    );
    m.put("ingest.ns_per_frame", "ns", rep.ingest_ns_per_frame);
    m.put("ingest.msgs_per_frame", "count", rep.msgs_per_frame);
    m.put(
        "shard.batch_publications",
        "count",
        d(|s| s.batch_publications),
    );
    m.put("shard.mailbox_drained", "count", d(|s| s.mailbox_drained));
    m.put("shard.hint_fast_path", "count", d(|s| s.hint_fast_path));
    m.put("shard.steals", "count", d(|s| s.steals));
    m.put(
        "shard.cross_shard_swaps",
        "count",
        d(|s| s.cross_shard_swaps),
    );
    m.put(
        "arena.reuse_ratio",
        "ratio",
        reuse / (reuse + fallback).max(1.0),
    );
    m.put("sched.messages", "count", messages);
    m.put(
        "sched.msgs_per_acquisition",
        "ratio",
        messages / d(|s| s.operator_acquisitions).max(1.0),
    );
    m.put("sched.quantum_swaps", "count", d(|s| s.quantum_swaps));
    m.put("sched.deadline_hits", "count", d(|s| s.deadline_hits));
    m.put("sched.deadline_misses", "count", d(|s| s.deadline_misses));
    m.put("worker.busy_s", "s", workers.run_ns as f64 / 1e9);
    m.put("worker.wait_s", "s", workers.wait_ns as f64 / 1e9);
    m.put(
        "worker.busy_frac",
        "ratio",
        workers.run_ns as f64 / 1e9 / run.worker_s.max(1e-9),
    );
    m.put(
        "worker.us_per_msg",
        "us",
        workers.run_ns as f64 / 1e3 / messages.max(1.0),
    );
    m.put("worker.sat_hz_1w", "1/s", sat_1w);
    m.put(
        "proc.vol_ctxt_per_kframe",
        "count",
        all.vol as f64 * 1e3 / frames,
    );
    m.put(
        "proc.invol_ctxt_per_kframe",
        "count",
        all.invol as f64 * 1e3 / frames,
    );
    m.put("dataflow.windows", "count", a.windows as f64);
    m.put("dataflow.result_mismatches", "count", a.mismatches as f64);
    m.put("split.ingress_p50_us", "us", quantile(&ingress, 0.50));
    m.put("split.ingress_p99_us", "us", quantile(&ingress, 0.99));
    m.put("split.runtime_p50_us", "us", quantile(&runtime, 0.50));
    m.put("split.runtime_p99_us", "us", quantile(&runtime, 0.99));
    m.put("split.egress_p50_us", "us", quantile(&egress, 0.50));
    m.put("split.egress_p99_us", "us", quantile(&egress, 0.99));
    m.put("split.sum_violations", "count", a.sum_violations as f64);
    m.put("p99_us", "us", a.sliced(0.99, |_| true));
    m.put("tight_p95_us", "us", a.sliced(0.95, |s| s.tight));
    m.put("tight_p99_us", "us", a.sliced(0.99, |s| s.tight));
    m.put("p999_us", "us", quantile(&e2e, 0.999));
    m.put("trace.p50_us", "us", a.sliced(0.50, |_| true));
    m.put("latency.samples", "count", a.samples.len() as f64);
    m.put("miss_rate", "ratio", a.miss_rate());
    m.put(
        "error_rate",
        "ratio",
        (run.net_losses.0 + run.net_losses.1 + run.net_losses.2 + a.failures()) as f64
            / run.frames_sent.max(1) as f64,
    );
    m.put(
        "journal.ns_per_frame",
        "ns",
        rep.journal_ingest_ns_per_frame - rep.ingest_ns_per_frame,
    );
    m.put(
        "journal.overhead_ratio",
        "ratio",
        rep.journal_ingest_ns_per_frame / rep.ingest_ns_per_frame.max(1e-9),
    );
    m.put("journal.bytes_per_frame", "B", rep.journal_bytes_per_frame);
    m.put(
        "snapshot.ms",
        "ms",
        run.snapshot_ms.or(rep.snapshot_ms).unwrap_or(0.0),
    );
    m.put("recover.s", "s", rec_s);
    m.put("recover.frames_replayed", "count", rec_frames);
    m.put("recover.torn_bytes", "B", rec_torn);
    m.put(
        "elastic.grows",
        "count",
        e1.grows.saturating_sub(e0.grows) as f64,
    );
    m.put(
        "elastic.shrinks",
        "count",
        e1.shrinks.saturating_sub(e0.shrinks) as f64,
    );
    m.put(
        "elastic.migrations",
        "count",
        e1.migrations.saturating_sub(e0.migrations) as f64,
    );
    m.put(
        "elastic.reclaims",
        "count",
        e1.reclaims.saturating_sub(e0.reclaims) as f64,
    );
    m.put("elastic.peak_workers", "count", e1.peak_workers as f64);
    m.put("elastic.worker_s", "s", run.worker_s);
    m
}

fn run(args: &Args, wl: &Workload, work: &Path) -> (String, String) {
    let clock = Clock::new();
    let opts = DriveOpts {
        setups: if args.smoke { 2 } else { SETUPS },
        trace: args.trace,
        schedule: true,
        one_worker: false,
        dir: &work.join("run"),
        seed: args.seed,
    };
    let run = drive(wl, &opts, &clock);
    let a = analyze(wl, &run);
    let mut errors = run.errors.clone();
    if let Some((_, rep)) = &run.recover {
        if rep.frames_replayed as u64 != run.frames_after_snapshot {
            errors.push(format!(
                "recovery replayed {} frames, {} were journaled after the snapshot",
                rep.frames_replayed, run.frames_after_snapshot
            ));
        }
        if rep.torn_bytes != 0 {
            errors.push(format!("recovery found {} torn bytes", rep.torn_bytes));
        }
    }
    if a.sum_violations > 0 {
        errors.push(format!(
            "{} outputs failed the latency-split sum check",
            a.sum_violations
        ));
    }
    if a.samples.is_empty() {
        errors.push("no timed outputs".into());
    }

    let metrics = if args.trace {
        let mut tr = Tracer::new(true, 3);
        let rep = match &run.capture {
            Some(cap) => replay::replay(
                wl,
                cap,
                &work.join("replay"),
                run.recover.is_none(),
                &clock,
                &mut tr,
            ),
            None => replay::Replayed::default(),
        };
        errors.extend(rep.errors.iter().cloned());
        if let Some((_, r)) = &rep.recover {
            if r.frames_replayed != rep.frames_journaled || r.torn_bytes != 0 {
                errors.push(format!(
                    "replay recovery: {} of {} frames, {} torn bytes",
                    r.frames_replayed, rep.frames_journaled, r.torn_bytes
                ));
            }
        }
        // The single-threaded baseline: the same jobs on one worker,
        // saturation budget only.
        let one = DriveOpts {
            setups: 1,
            trace: false,
            schedule: false,
            one_worker: true,
            dir: &work.join("one-worker"),
            seed: args.seed,
        };
        let run1 = drive(wl, &one, &clock);
        let a1 = analyze(wl, &run1);
        errors.extend(run1.errors.iter().map(|e| format!("one worker: {e}")));
        if a1.failures() > 0 {
            errors.push(format!(
                "one worker: {} outputs failed the oracle",
                a1.failures()
            ));
        }
        let m = per_layer(&run, &a, &rep, sat_hz(&run1, &a1));
        let mut spans = run.spans.clone();
        spans.extend(tr.spans);
        let dir = PathBuf::from(".slobench_work").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", wl.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| trace::write_spans(&path, &spans))
        {
            errors.push(format!("writing spans: {e}"));
        }
        m
    } else {
        end_to_end(&run, &a)
    };
    if metrics.0.iter().any(|(_, _, v)| !v.is_finite()) {
        errors.push("a metric is not a finite number".into());
    }
    let failed = run.net_losses.0 + run.net_losses.1 + run.net_losses.2 + a.failures();
    let correct = errors.is_empty() && failed == 0;
    let lags: Vec<f64> = run.lags_us.iter().map(|&l| l as f64).collect();
    let lag_p99 = quantile(&lags, 0.99);
    let tight = a.samples.iter().filter(|s| s.tight).count();
    let detail = format!(
        "{{\"provenance\": {}, \"detail\": {{\"samples\": {}, \"tight_samples\": {}, \"p99_by_slice_us\": [{}], \"p50_by_slice_us\": [{}], \"p95_by_slice_us\": [{}], \"tight_p95_by_slice_us\": [{}], \"sat_hz_by_round\": [{}], \"steal_by_slice\": {:?}, \"steal_ms_per_s\": {}, \"host_disturbed\": {}, \"attempt\": {}, \"peak_rss_mb\": {}, \"pooled_p90_p95_p98_p99_p995_us\": [{}], \"p99_us\": {}, \"tight_p99_us\": {}, \"miss_rate\": {}, \"late\": {}, \"missing\": {}, \"duplicates\": {}, \"mismatches\": {}, \"error_rate\": {}, \"lag_p50_us\": {}, \"lag_p99_us\": {}, \"generator_lagging\": {}, \"sender_realtime\": {}, \"align_width_us\": {}, \"timed_frames\": {}, \"frames_sent\": {}, \"snapshot_ms\": {}, \"recover_s\": {}, \"errors\": [{}]}}}}",
        provenance(args, wl),
        a.samples.len(),
        tight,
        by_slice(&a, 0.99, |_| true),
        by_slice(&a, 0.50, |_| true),
        by_slice(&a, 0.95, |_| true),
        by_slice(&a, 0.95, |s| s.tight),
        sat_rates(&run, &a)
            .into_iter()
            .map(json_num)
            .collect::<Vec<_>>()
            .join(", "),
        a.steal_by_slice,
        json_num(a.steal_ms_per_s),
        a.host_disturbed(),
        args.attempt,
        json_num(run.peak_rss_kb as f64 / 1024.0),
        [0.90, 0.95, 0.98, 0.99, 0.995]
            .map(|q| json_num(quantile(&a.samples.iter().map(|s| s.e2e).collect::<Vec<_>>(), q)))
            .join(", "),
        json_num(a.sliced(0.99, |_| true)),
        json_num(a.sliced(0.99, |s| s.tight)),
        json_num(a.miss_rate()),
        a.late,
        a.missing,
        a.duplicates,
        a.mismatches,
        json_num(failed as f64 / run.frames_sent.max(1) as f64),
        json_num(quantile(&lags, 0.5)),
        json_num(lag_p99),
        lag_p99 > report::LAG_LIMIT_US,
        run.realtime,
        run.align_width_us,
        run.timed_frames,
        run.frames_sent,
        json_num(run.snapshot_ms.unwrap_or(0.0)),
        json_num(run.recover.as_ref().map_or(0.0, |r| r.0)),
        errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", "),
    );
    (
        detail,
        result_line(
            correct,
            run.frames_sent.max(1),
            failed + errors.len() as u64,
            &metrics,
        ),
    )
}

/// Each slice's quantile `q` of the latency of the samples `keep`
/// selects, as a JSON list.
fn by_slice(a: &Analysis, q: f64, keep: impl Fn(&report::Sample) -> bool) -> String {
    a.by_slice(q, keep)
        .into_iter()
        .map(json_num)
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "slobench: {e}\nusage: slobench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(wl) = Workload::new(&args.workload, args.seed, args.seconds, args.smoke) else {
        eprintln!(
            "slobench: unknown workload {}; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    if args.attempt == 0 {
        // The traced run's figures are not gated, so it is not retried.
        supervise(if args.trace { 1 } else { MAX_ATTEMPTS });
        return;
    }
    let work = PathBuf::from(".slobench_work").join(format!("{}-{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");
    let (detail, result) = run(&args, &wl, &work);
    let _ = std::fs::remove_dir_all(&work);
    println!("{detail}");
    println!("{result}");
}

/// Run each attempt in a child process of its own, so peak RSS and
/// allocator state never carry over. A run the host disturbed measures
/// the host, so while time allows it is run again, and the attempt the
/// host took the least CPU time from is printed.
fn supervise(max_attempts: usize) {
    use cameo_bench::slo::json::Value;
    let start = std::time::Instant::now();
    let exe = std::env::current_exe().expect("path of this executable");
    let mut best: Option<(f64, String)> = None;
    for attempt in 1..=max_attempts {
        let out = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--attempt", &attempt.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run an attempt");
        if !out.status.success() {
            std::process::exit(out.status.code().unwrap_or(1));
        }
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let detail = stdout
            .lines()
            .rev()
            .nth(1)
            .and_then(|l| Value::parse(l).ok());
        let field = |k: &str| {
            detail
                .as_ref()
                .and_then(|d| d.get("detail")?.get(k).cloned())
        };
        let steal = field("steal_ms_per_s")
            .and_then(|v| v.as_num())
            .unwrap_or(f64::INFINITY);
        let disturbed = field("host_disturbed") == Some(Value::Bool(true));
        if best.as_ref().is_none_or(|(s, _)| steal < *s) {
            best = Some((steal, stdout));
        }
        if !disturbed || start.elapsed() > RETRY_BEFORE {
            break;
        }
    }
    print!("{}", best.expect("one attempt").1);
}
