//! Offline replays of the traced run's captured wire bytes, one layer
//! at a time: the decoder alone (`msg`), then `Runtime::ingest_frames`
//! into zero-worker runtimes with and without the journal (`ingest`,
//! `durability`), then recovery of that journal.

use crate::drive::{runtime_config, timed_recover, Capture};
use crate::trace::{Clock, Tracer};
use crate::workload::Workload;
use cameo_dataflow::expand::ExpandOptions;
use cameo_runtime::durability::RecoveryReport;
use cameo_runtime::msg::FrameDecoder;
use cameo_runtime::net::IngestFrame;
use cameo_runtime::runtime::{JobHandle, Runtime, RuntimeConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Alternating passes per replay; each layer reports its median pass.
const PASSES: usize = 3;

/// Per-layer figures from the replays.
#[derive(Default)]
pub struct Replayed {
    /// Frames replayed.
    pub frames: usize,
    /// Wire bytes replayed.
    pub bytes: usize,
    /// `FrameDecoder::decode_available` time per frame (ns).
    pub decode_ns_per_frame: f64,
    /// Durations of the journal-off `ingest_frames` calls (µs).
    pub ingest_calls_us: Vec<f64>,
    /// Journal-off ingest time per frame (ns).
    pub ingest_ns_per_frame: f64,
    /// Scheduler messages per ingested frame.
    pub msgs_per_frame: f64,
    /// Journal-on ingest time per frame (ns).
    pub journal_ingest_ns_per_frame: f64,
    /// Journal bytes written per frame.
    pub journal_bytes_per_frame: f64,
    /// `Runtime::recover` over the replay journal: duration (s), report.
    pub recover: Option<(f64, RecoveryReport)>,
    /// Snapshot of the recovered runtime once it drained (ms).
    pub snapshot_ms: Option<f64>,
    /// Frames recovery must replay.
    pub frames_journaled: usize,
    /// Failures met while replaying.
    pub errors: Vec<String>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Decode the capture once, timing only `decode_available`.
fn decode(bytes: &[u8]) -> (Vec<IngestFrame>, Duration) {
    let mut dec = FrameDecoder::new();
    let mut reader = bytes;
    let mut frames = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let n = dec.fill(&mut reader).expect("reading a byte slice");
        let t = Instant::now();
        dec.decode_available(&mut frames)
            .expect("captured frames decode");
        spent += t.elapsed();
        if n == 0 {
            return (frames, spent);
        }
    }
}

/// The capture's frames split into its send bursts and re-addressed
/// from the live run's job handles to `handles`.
fn readdress(
    cap: &Capture,
    frames: &[IngestFrame],
    handles: &[JobHandle],
) -> Vec<Vec<IngestFrame>> {
    let job = |f: &IngestFrame| {
        cap.handles
            .iter()
            .position(|h| h.slot() == f.job && h.generation() == f.gen)
            .expect("captured frame addresses a workload job")
    };
    let mut bursts = Vec::with_capacity(cap.bursts.len());
    let mut at = 0;
    for &n in &cap.bursts {
        bursts.push(
            frames[at..at + n]
                .iter()
                .map(|f| IngestFrame::addressed(handles[job(f)], f.source, f.tuples.clone()))
                .collect(),
        );
        at += n;
    }
    bursts
}

/// Ingest the capture burst by burst into a fresh zero-worker runtime;
/// returns per-call durations (µs), scheduler messages, and the time.
fn ingest(
    wl: &Workload,
    cap: &Capture,
    frames: &[IngestFrame],
    mut cfg: RuntimeConfig,
) -> (Vec<f64>, usize, Duration) {
    cfg.workers = 0;
    cfg.elastic = None;
    let rt = Runtime::start(cfg);
    let handles: Vec<_> = wl
        .jobs
        .iter()
        .map(|j| {
            rt.deploy(&j.spec, &ExpandOptions::default())
                .expect("replay deploy")
        })
        .collect();
    let (mut calls, mut msgs, mut spent) = (Vec::new(), 0, Duration::ZERO);
    for burst in readdress(cap, frames, &handles) {
        let t = Instant::now();
        let out = rt.ingest_frames(burst);
        let d = t.elapsed();
        spent += d;
        calls.push(d.as_nanos() as f64 / 1e3);
        msgs += out.messages;
    }
    rt.shutdown();
    (calls, msgs, spent)
}

/// Replay `cap` through each layer. `recover` also recovers the replay
/// journal (workloads whose run leaves no journal of its own).
pub fn replay(
    wl: &Workload,
    cap: &Capture,
    dir: &Path,
    recover: bool,
    clock: &Clock,
    tr: &mut Tracer,
) -> Replayed {
    let mut r = Replayed {
        bytes: cap.bytes.len(),
        ..Replayed::default()
    };
    let mut decode_ns = Vec::new();
    let mut frames = Vec::new();
    for _ in 0..PASSES {
        let (f, d) = decode(&cap.bytes);
        decode_ns.push(d.as_nanos() as f64);
        frames = f;
    }
    r.frames = frames.len();
    let expected: usize = cap.bursts.iter().sum();
    if r.frames != expected {
        r.errors.push(format!(
            "decoded {} of {expected} captured frames",
            r.frames
        ));
        return r;
    }
    let per = |ns: f64| ns / r.frames.max(1) as f64;
    r.decode_ns_per_frame = per(median(decode_ns));

    let journal_dir = |k: usize| dir.join(format!("replay-journal-{k}"));
    let journaled = |k: usize| runtime_config(wl, Some(&journal_dir(k)), false);
    let (mut off, mut on, mut calls, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for k in 0..PASSES {
        let (c, msgs, d) = ingest(wl, cap, &frames, RuntimeConfig::default());
        off.push(d.as_nanos() as f64);
        r.msgs_per_frame = msgs as f64 / r.frames.max(1) as f64;
        calls = c;
        let (_, _, d) = ingest(wl, cap, &frames, journaled(k));
        on.push(d.as_nanos() as f64);
        bytes = dir_bytes(&journal_dir(k));
        if k + 1 < PASSES {
            let _ = std::fs::remove_dir_all(journal_dir(k));
        }
    }
    r.ingest_calls_us = calls;
    r.ingest_ns_per_frame = per(median(off));
    r.journal_ingest_ns_per_frame = per(median(on));
    r.journal_bytes_per_frame = bytes as f64 / r.frames.max(1) as f64;
    r.frames_journaled = r.frames;

    if recover {
        match timed_recover(wl, &journal_dir(PASSES - 1), clock, tr) {
            Ok(rec) => r.recover = Some(rec),
            Err(e) => r.errors.push(format!("replay {e}")),
        }
        match snapshot_pass(wl, cap, &frames, &dir.join("replay-snapshot"), clock, tr) {
            Ok(ms) => r.snapshot_ms = Some(ms),
            Err(e) => r.errors.push(e),
        }
    }
    r
}

/// Ingest the capture into a journaled runtime with its workers, let
/// it drain, and time a snapshot of the state the workload built.
fn snapshot_pass(
    wl: &Workload,
    cap: &Capture,
    frames: &[IngestFrame],
    dir: &Path,
    clock: &Clock,
    tr: &mut Tracer,
) -> Result<f64, String> {
    let rt = Runtime::start(runtime_config(wl, Some(dir), false));
    let handles: Vec<_> = wl
        .jobs
        .iter()
        .map(|j| {
            rt.deploy(&j.spec, &ExpandOptions::default())
                .expect("replay deploy")
        })
        .collect();
    for burst in readdress(cap, frames, &handles) {
        rt.ingest_frames(burst);
    }
    let out = if rt.drain(Duration::from_secs(60)) {
        let t = clock.now_us();
        tr.span(clock, 0, "Runtime::snapshot_within", 1, || {
            rt.snapshot_within(Duration::from_secs(5))
        })
        .map(|_| (clock.now_us() - t) as f64 / 1e3)
        .map_err(|e| format!("replay snapshot: {e}"))
    } else {
        Err("replay runtime did not drain".into())
    };
    rt.shutdown();
    out
}
