//! The load generator and the run it drives: set-up, the open-loop
//! timed phase over one TCP connection, the back-to-back saturation
//! budget, the journal's snapshot and recovery, and teardown.
//!
//! The generator is one process with two threads: this sender and one
//! receiver that drains every subscription. It is sized for a small
//! host — the runtime under test needs the cores more than it does.

use crate::procfs::{self, PhaseCpu};
use crate::trace::{Clock, Span, Tracer};
use crate::workload::{digest, Gen, Shape, Workload, SAT_ROUNDS};
use cameo_core::elastic::{ElasticConfig, ElasticTelemetry};
use cameo_core::progress::TimeDomain;
use cameo_core::scheduler::SchedulerStats;
use cameo_core::time::{LogicalTime, Micros};
use cameo_dataflow::event::Tuple;
use cameo_dataflow::expand::ExpandOptions;
use cameo_dataflow::graph::{JobBuilder, JobSpec, Routing};
use cameo_dataflow::operator::OperatorKind;
use cameo_dataflow::ops::SpinMap;
use cameo_runtime::durability::{DurabilityConfig, FsyncPolicy, RecoveryReport, SpecRegistry};
use cameo_runtime::net::{IngestClient, IngestFrame, IngestServer};
use cameo_runtime::runtime::{JobHandle, OutputEvent, OutputSubscription, Runtime, RuntimeConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// In-process probes used to align the runtime's clock with the
/// generator's.
const PROBES: u64 = 8;
/// Frames per `send_many` call in the saturation budget.
const SAT_CHUNK: usize = 256;
/// Bound on every wait for ingress or outputs; a run that hits it is
/// reported as failed, never left hanging.
const WAIT_LIMIT: Duration = Duration::from_secs(60);
/// How often the receiver samples thread counters in the timed phase.
const CPU_SAMPLE_US: u64 = 100_000;
/// The receiver's sleep when a sweep finds no output.
const RX_IDLE: Duration = Duration::from_micros(100);
/// How often the receiver samples the hypervisor's steal time.
const STEAL_SAMPLE_US: u64 = 20_000;

/// Phase markers the sender publishes to the receiver.
const WARMUP: u8 = 0;
const TIMED: u8 = 1;
const AFTER: u8 = 2;

/// The runtime configuration a workload runs under: the defaults, plus
/// the workload's own elastic band, and a journal in `journal` when
/// given. `one_worker` pins a static single-worker pool (the
/// single-threaded baseline).
pub fn runtime_config(wl: &Workload, journal: Option<&Path>, one_worker: bool) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::default();
    if one_worker {
        cfg = cfg.with_workers(1);
    } else if wl.elastic {
        // The band, tick and quiescence window of the `elastic_step`
        // bench cell; the ceiling is above the host's cores on purpose.
        cfg = cfg.with_workers(1).with_elastic(
            ElasticConfig::new(1, 4)
                .with_tick(Micros(20_000))
                .with_quiescent_ticks(3),
        );
    }
    if let Some(dir) = journal {
        cfg = cfg.with_durability(DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never));
    }
    cfg
}

/// The passthrough job the clock probes run through.
fn probe_spec() -> JobSpec {
    let mut b = JobBuilder::new("clock-probe", Micros(1_000_000), TimeDomain::EventTime);
    let src = b.ingest("src", 1);
    let echo = b.stage("echo", 1, OperatorKind::Regular, Micros(1), |_| {
        Box::new(SpinMap::new(Micros(0)))
    });
    b.connect(src, echo, Routing::Forward);
    b.build().expect("probe graph")
}

/// Every spec a workload's runtime deploys, for `Runtime::recover`.
pub fn registry(wl: &Workload) -> SpecRegistry {
    let mut reg = SpecRegistry::new();
    reg.register(probe_spec(), ExpandOptions::default());
    for j in &wl.jobs {
        reg.register((j.make)(), ExpandOptions::default());
    }
    reg
}

/// Time `Runtime::recover` over the journal in `dir`. The recovered
/// runtime has no workers, so the figure is recovery's own work —
/// repair, snapshot load, state restore and replay submission — and
/// the replayed messages are dropped at shutdown. (With workers
/// draining concurrently, replay's one-frame-per-submit pattern can
/// slow down progressively; see the README.)
pub fn timed_recover(
    wl: &Workload,
    dir: &Path,
    clock: &Clock,
    tr: &mut Tracer,
) -> Result<(f64, RecoveryReport), String> {
    let mut cfg = runtime_config(wl, Some(dir), false);
    cfg.workers = 0;
    cfg.elastic = None;
    let reg = registry(wl);
    let t = clock.now_us();
    let (rt, report) = tr
        .span(clock, 0, "Runtime::recover", 0, || {
            Runtime::recover(cfg, &reg)
        })
        .map_err(|e| format!("recover: {e}"))?;
    let took = (clock.now_us() - t) as f64 / 1e6;
    rt.shutdown();
    Ok((took, report))
}

/// One sink output as the receiver saw it, reduced to what the oracles
/// need so the generator's memory does not swamp the runtime's in
/// `peak_rss_mb`.
pub struct Output {
    /// Index of the job in the workload.
    pub job: u16,
    /// `OutputEvent.at`, runtime clock (µs).
    pub at: u64,
    /// `OutputEvent.latency` (µs): emission minus the runtime's arrival
    /// stamp of the closing input.
    pub latency: u64,
    /// Receipt on the generator clock (µs).
    pub receipt: u64,
    /// Spin jobs: one tuple's key (a sequence number); an output is
    /// recorded once per tuple, and an empty batch as `None`.
    /// Windowed jobs: the batch's progress, which names the window.
    pub key: Option<u64>,
    /// Windowed jobs: `workload::digest` of the batch's tuples.
    pub digest: (u64, usize),
}

fn record(out: &mut Vec<Output>, job: u16, windowed: bool, ev: OutputEvent, receipt: u64) {
    let o = |key, digest| Output {
        job,
        at: ev.at.0,
        latency: ev.latency.0,
        receipt,
        key,
        digest,
    };
    if windowed {
        let d = digest(ev.batch.tuples.iter().map(|t| (t.key, t.value)));
        out.push(o(Some(ev.batch.progress.0), d));
    } else if ev.batch.tuples.is_empty() {
        out.push(o(None, (0, 0)));
    } else {
        out.extend(ev.batch.tuples.iter().map(|t| o(Some(t.key), (0, 0))));
    }
}

struct RxShared {
    stop: AtomicBool,
    phase: AtomicU8,
    counts: Vec<AtomicU64>,
}

/// What the receiver thread hands back when it stops.
pub struct RxResult {
    /// Every output, in receipt order.
    pub outputs: Vec<Output>,
    /// Thread counters over the timed phase.
    pub cpu: PhaseCpu,
    /// Integral of the live worker count over the timed phase (s).
    pub worker_s: f64,
    /// `drain` spans (traced runs).
    pub spans: Vec<Span>,
    /// `(generator µs, cumulative steal ticks)` samples.
    pub steal: Vec<(u64, u64)>,
}

fn receiver(
    subs: Vec<OutputSubscription>,
    shared: Arc<RxShared>,
    rt: Arc<Runtime>,
    clock: Clock,
    trace: bool,
    expect_outputs: usize,
    windowed: Vec<bool>,
) -> RxResult {
    let mut tr = Tracer::new(trace, 2);
    let mut outputs = Vec::with_capacity(expect_outputs);
    let mut cpu = PhaseCpu::default();
    let mut seen = WARMUP;
    let (mut last_t, mut last_sample) = (0u64, 0u64);
    let mut worker_s = 0.0;
    let mut sweep = 0u64;
    let mut steal = vec![(clock.now_us(), procfs::steal_ticks())];
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let t0 = clock.now_us();
        if t0 - steal[steal.len() - 1].0 >= STEAL_SAMPLE_US {
            steal.push((t0, procfs::steal_ticks()));
        }
        let mut got = 0;
        for (j, sub) in subs.iter().enumerate() {
            while let Ok(ev) = sub.try_recv() {
                record(&mut outputs, j as u16, windowed[j], ev, clock.now_us());
                got += 1;
                shared.counts[j].fetch_add(1, Ordering::Release);
            }
        }
        let now = clock.now_us();
        if got > 0 {
            let id = tr.open();
            tr.close(id, 0, "OutputSubscription::drain", t0, now, sweep);
            sweep += 1;
        }
        let phase = shared.phase.load(Ordering::Acquire);
        if seen == WARMUP && phase >= TIMED {
            cpu = PhaseCpu::begin(procfs::cameo_threads());
            (last_t, last_sample) = (now, now);
            seen = TIMED;
        } else if seen == TIMED {
            worker_s += (now - last_t) as f64 / 1e6 * rt.worker_count() as f64;
            last_t = now;
            if phase >= AFTER {
                cpu.observe(procfs::cameo_threads());
                seen = AFTER;
            } else if now - last_sample >= CPU_SAMPLE_US {
                cpu.observe(procfs::cameo_threads());
                last_sample = now;
            }
        }
        if stopping && got == 0 {
            break;
        }
        if got == 0 {
            std::thread::sleep(RX_IDLE);
        }
    }
    steal.push((clock.now_us(), procfs::steal_ticks()));
    RxResult {
        outputs,
        cpu,
        worker_s,
        spans: tr.spans,
        steal,
    }
}

/// A set-up runtime with its server, connection and receiver.
pub struct Live {
    /// The runtime under test.
    pub rt: Arc<Runtime>,
    server: IngestServer,
    client: IngestClient,
    /// Job handles, workload order.
    pub handles: Vec<JobHandle>,
    /// The runtime clock's zero on the generator clock (µs).
    pub offset_us: i64,
    /// Width of the interval the alignment probes left the offset in.
    pub align_width_us: i64,
    /// Generator time of the schedule origin (end of set-up).
    pub origin_us: u64,
    /// `Runtime::start` to the schedule origin (s).
    pub setup_s: f64,
    rx: JoinHandle<RxResult>,
    shared: Arc<RxShared>,
}

/// Start a runtime for `wl` and make it ready to receive the schedule.
/// The set-up's `setup_s` runs from `Runtime::start` to the schedule
/// origin.
pub fn setup(wl: &Workload, cfg: RuntimeConfig, clock: &Clock, tr: &mut Tracer) -> Live {
    let t0 = clock.now_us();
    let root = tr.open();
    let rt = Arc::new(tr.span(clock, root, "Runtime::start", 0, || Runtime::start(cfg)));
    let handles: Vec<JobHandle> = wl
        .jobs
        .iter()
        .enumerate()
        .map(|(j, def)| {
            tr.span(clock, root, "Runtime::deploy", j as u64, || {
                rt.deploy(&def.spec, &ExpandOptions::default())
                    .expect("workload job deploys")
            })
        })
        .collect();
    let subs: Vec<OutputSubscription> = handles
        .iter()
        .enumerate()
        .map(|(j, h)| {
            tr.span(clock, root, "Runtime::subscribe", j as u64, || {
                rt.subscribe(*h).expect("subscribe to a live job")
            })
        })
        .collect();
    let server = tr.span(clock, root, "IngestServer::start", 0, || {
        IngestServer::start(rt.clone(), "127.0.0.1:0").expect("bind loopback")
    });
    let client = tr.span(clock, root, "IngestClient::connect", 0, || {
        IngestClient::connect(server.local_addr()).expect("connect loopback")
    });
    let align = tr.open();
    let a0 = clock.now_us();
    let (offset_us, align_width_us) = align_clocks(&rt, clock, tr, align);
    tr.close(align, root, "align", a0, clock.now_us(), 0);
    let shared = Arc::new(RxShared {
        stop: AtomicBool::new(false),
        phase: AtomicU8::new(WARMUP),
        counts: wl.jobs.iter().map(|_| AtomicU64::new(0)).collect(),
    });
    let rx = {
        let (shared, rt, clock, trace) = (shared.clone(), rt.clone(), *clock, tr.enabled());
        let expect = wl.outputs_estimate();
        let windowed = wl
            .jobs
            .iter()
            .map(|j| matches!(j.shape, Shape::Window { .. }))
            .collect();
        std::thread::Builder::new()
            .name("slobench-rx".into())
            .spawn(move || receiver(subs, shared, rt, clock, trace, expect, windowed))
            .expect("spawn receiver")
    };
    let origin_us = clock.now_us();
    tr.close(root, 0, "setup", t0, origin_us, 0);
    Live {
        rt,
        server,
        client,
        handles,
        offset_us,
        align_width_us,
        origin_us,
        setup_s: (origin_us - t0) as f64 / 1e6,
        rx,
        shared,
    }
}

/// Estimate the runtime clock's zero on the generator clock. Each probe
/// bounds it from below (the runtime stamped the probe's arrival after
/// the generator read its clock) and from above (the generator received
/// the output after the runtime stamped its emission). The lower bound
/// is tight to the cost of one call, so it is the estimate.
fn align_clocks(rt: &Runtime, clock: &Clock, tr: &mut Tracer, parent: u64) -> (i64, i64) {
    let h = tr.span(clock, parent, "Runtime::deploy", u64::MAX, || {
        rt.deploy(&probe_spec(), &ExpandOptions::default())
            .expect("probe deploys")
    });
    let sub = rt.subscribe(h).expect("subscribe to probe");
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    for i in 0..PROBES {
        let sent = clock.now_us() as i64;
        rt.ingest(h, 0, vec![Tuple::new(i, 0, LogicalTime(i + 1))])
            .expect("probe ingest");
        let ev = sub
            .recv_timeout(Duration::from_secs(5))
            .expect("probe output");
        let got = clock.now_us() as i64;
        let arrival = ev.at.0 as i64 - ev.latency.0 as i64;
        lo = lo.max(sent - arrival);
        hi = hi.min(got - ev.at.0 as i64);
    }
    drop(sub);
    rt.undeploy(h).expect("probe undeploys");
    (lo, hi - lo)
}

/// Layer counters read at the edges of the timed phase.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    /// Runtime scheduler counters.
    pub sched: SchedulerStats,
    /// Server frames received.
    pub net_frames: u64,
    /// Server readiness bursts.
    pub net_bursts: u64,
    /// Elastic controller counters.
    pub elastic: ElasticTelemetry,
}

fn counters(live: &Live) -> Counters {
    Counters {
        sched: live.rt.scheduler_stats(),
        net_frames: live.server.frames_received(),
        net_bursts: live.server.readiness_bursts(),
        elastic: live.rt.elastic_telemetry(),
    }
}

/// Wire bytes the traced run captured, for the replays.
#[derive(Default)]
pub struct Capture {
    /// Encoded frames, back to back, as written to the socket.
    pub bytes: Vec<u8>,
    /// Frames per `send_many` call.
    pub bursts: Vec<usize>,
    /// The live run's handles, to re-address replayed frames.
    pub handles: Vec<JobHandle>,
}

/// Everything one driven run produced.
pub struct RunData {
    /// Set-up durations (s), one per repetition.
    pub setup_s: Vec<f64>,
    /// Runtime clock zero on the generator clock (µs).
    pub offset_us: i64,
    /// Alignment uncertainty (µs).
    pub align_width_us: i64,
    /// Schedule origin on the generator clock (µs).
    pub origin_us: u64,
    /// Every output.
    pub outputs: Vec<Output>,
    /// `(generator µs, cumulative steal ticks)` samples.
    pub steal: Vec<(u64, u64)>,
    /// The generator's record of what it sent.
    pub gen: Gen,
    /// Send lag behind schedule of every timed frame (µs).
    pub lags_us: Vec<u64>,
    /// `send_many` calls in the timed phase.
    pub timed_calls: u64,
    /// Frames scheduled in the timed phase.
    pub timed_frames: u64,
    /// Frames sent in total.
    pub frames_sent: u64,
    /// Counters at the start and end of the timed phase.
    pub edges: (Counters, Counters),
    /// Thread counters over the timed phase.
    pub cpu: PhaseCpu,
    /// Integral of the worker count over the timed phase (s).
    pub worker_s: f64,
    /// Per saturation round: generator time of its first send (µs) and
    /// its frames.
    pub sat_rounds: Vec<(u64, u64)>,
    /// Frames the server dropped, rejected by generation, and NACKs.
    pub net_losses: (u64, u64, u64),
    /// Mid-horizon snapshot duration (ms), journal workloads.
    pub snapshot_ms: Option<f64>,
    /// Peak RSS when the open-loop schedule ended (kB).
    pub peak_rss_kb: u64,
    /// Whether the sender ran in the real-time class.
    pub realtime: bool,
    /// Frames journaled after the snapshot cut.
    pub frames_after_snapshot: u64,
    /// `Runtime::recover` duration (s) and report, journal workloads.
    pub recover: Option<(f64, RecoveryReport)>,
    /// Captured wire bytes (traced runs).
    pub capture: Option<Capture>,
    /// All spans (traced runs).
    pub spans: Vec<Span>,
    /// Failures found while driving (timeouts, refused calls).
    pub errors: Vec<String>,
}

/// Send, flush, and account the frames of one `send_many` call.
struct Sender<'a> {
    live: &'a mut Live,
    clock: Clock,
    tr: Tracer,
    calls: u64,
    sent: u64,
    capture: Option<(Capture, usize)>,
}

impl Sender<'_> {
    fn send(&mut self, frames: &[IngestFrame], parent: u64) {
        let (client, clock) = (&mut self.live.client, self.clock);
        self.tr.span(
            &clock,
            parent,
            "IngestClient::send_many",
            self.calls,
            || client.send_many(frames).expect("send over loopback"),
        );
        if let Some((cap, room)) = &mut self.capture {
            if *room >= frames.len() {
                for f in frames {
                    f.encode_into(&mut cap.bytes);
                }
                cap.bursts.push(frames.len());
                *room -= frames.len();
            }
        }
        self.calls += 1;
        self.sent += frames.len() as u64;
    }

    /// Wait until the server accounted for every frame sent.
    fn await_ingress(&mut self) -> Result<(), String> {
        self.live.client.flush().expect("flush loopback");
        let s = &self.live.server;
        let limit = std::time::Instant::now() + WAIT_LIMIT;
        while s.frames_received() + s.frames_dropped() + s.gen_rejected_frames() < self.sent {
            if std::time::Instant::now() > limit {
                return Err(format!("ingress stalled below {} frames", self.sent));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Wait until every job emitted at least `expected` outputs.
    fn await_outputs(&self, expected: &[u64]) -> Result<(), String> {
        let limit = std::time::Instant::now() + WAIT_LIMIT;
        loop {
            let done = self
                .live
                .shared
                .counts
                .iter()
                .zip(expected)
                .all(|(c, &e)| c.load(Ordering::Acquire) >= e);
            if done {
                return Ok(());
            }
            if std::time::Instant::now() > limit {
                return Err("outputs missing after the wait limit".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The sender's position relative to the timed phase.
#[derive(Default)]
struct Phases {
    phase: u8,
    edges: (Counters, Counters),
}

impl Phases {
    /// Cross into the phase the instant `at` belongs to, reading the
    /// layer counters at each edge and telling the receiver.
    fn enter(&mut self, s: &mut Sender, wl: &Workload, at: u64) {
        if self.phase == WARMUP && at >= wl.timed_start_us {
            self.edges.0 = counters(s.live);
            s.live.shared.phase.store(TIMED, Ordering::Release);
            self.phase = TIMED;
        }
        if self.phase == TIMED && at >= wl.timed_end_us {
            self.edges.1 = counters(s.live);
            s.live.shared.phase.store(AFTER, Ordering::Release);
            self.phase = AFTER;
        }
    }
}

/// Stop the receiver and tear the runtime down, returning the
/// receiver's result.
fn teardown(live: Live) -> RxResult {
    live.shared.stop.store(true, Ordering::Release);
    let rx = live.rx.join().expect("receiver thread");
    drop(live.client);
    live.server.stop();
    Arc::try_unwrap(live.rt)
        .ok()
        .expect("sole runtime owner")
        .shutdown();
    rx
}

/// How to drive a run.
pub struct DriveOpts<'a> {
    /// Set-up repetitions; the last one is driven.
    pub setups: usize,
    /// Record spans and capture wire bytes.
    pub trace: bool,
    /// Run the schedule (false: saturation budget only).
    pub schedule: bool,
    /// Static single-worker pool.
    pub one_worker: bool,
    /// Scratch directory for journals.
    pub dir: &'a Path,
    /// Schedule and key seed.
    pub seed: u64,
}

/// Drive `wl` once.
pub fn drive(wl: &Workload, opts: &DriveOpts, clock: &Clock) -> RunData {
    let mut tr = Tracer::new(opts.trace, 1);
    let mut setup_s = Vec::new();
    let mut errors = Vec::new();
    let dir_of = |k: usize| -> PathBuf { opts.dir.join(format!("setup-{k}")) };
    let mut live = None;
    for k in 0..opts.setups.max(1) {
        let dir = dir_of(k);
        let cfg = runtime_config(wl, wl.journal.then_some(dir.as_path()), opts.one_worker);
        let l = setup(wl, cfg, clock, &mut tr);
        setup_s.push(l.setup_s);
        if k + 1 < opts.setups {
            teardown(l);
            let _ = std::fs::remove_dir_all(dir_of(k));
        } else {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    let handles = live.handles.clone();
    let mut gen = Gen::new(wl, opts.seed);
    let origin = live.origin_us;
    let mut s = Sender {
        live: &mut live,
        clock: *clock,
        tr,
        calls: 0,
        sent: 0,
        capture: opts.trace.then(|| {
            (
                Capture {
                    handles: handles.clone(),
                    ..Capture::default()
                },
                wl.replay_cap,
            )
        }),
    };

    // The open-loop schedule. Each wake-up sends every instant already
    // due in one `send_many`, never crossing a phase edge, and latency
    // is later taken from each input's scheduled time, so a stall of
    // the generator or the runtime inflates latency, never hides it.
    let mut lags_us = Vec::with_capacity(wl.scheduled_frames());
    let (mut timed_calls, mut timed_frames) = (0u64, 0u64);
    let mut ph = Phases::default();
    let mut snapshot_ms = None;
    let mut frames_after_snapshot = 0u64;
    let mid = (wl.timed_start_us + wl.timed_end_us) / 2;
    let mut edge_list = vec![wl.timed_start_us, wl.timed_end_us];
    if wl.journal {
        edge_list.push(mid);
    }
    edge_list.sort_unstable();
    let timed_span = s.tr.open();
    let instants = if opts.schedule { &wl.instants[..] } else { &[] };
    let mut frames = Vec::new();
    let mut snapped = !wl.journal;
    let mut i = 0;
    let realtime = opts.schedule && procfs::realtime(true);
    while i < instants.len() {
        let due = instants[i].0;
        loop {
            let now = clock.now_us() - origin;
            if now >= due {
                break;
            }
            std::thread::sleep(Duration::from_micros((due - now).min(1_000)));
        }
        ph.enter(&mut s, wl, due);
        if !snapped && due >= mid {
            snapped = true;
            match s.await_ingress() {
                Ok(()) => {
                    let t = clock.now_us();
                    let rt = s.live.rt.clone();
                    match s
                        .tr
                        .span(clock, timed_span, "Runtime::snapshot_within", 0, || {
                            rt.snapshot_within(Duration::from_secs(5))
                        }) {
                        Ok(_) => snapshot_ms = Some((clock.now_us() - t) as f64 / 1e3),
                        Err(e) => errors.push(format!("snapshot: {e}")),
                    }
                    frames_after_snapshot = s.sent;
                }
                Err(e) => errors.push(e),
            }
        }
        let now = clock.now_us() - origin;
        let edge = edge_list
            .iter()
            .copied()
            .find(|&e| e > due)
            .unwrap_or(u64::MAX);
        frames.clear();
        let mut j = i;
        while j < instants.len() && instants[j].0 <= now && instants[j].0 < edge {
            let (at, job) = instants[j];
            let before = frames.len();
            gen.instant(wl, &handles, at, job, &mut frames);
            if wl.timed(at) {
                lags_us.extend(std::iter::repeat_n(now - at, frames.len() - before));
            }
            j += 1;
        }
        if wl.timed(due) {
            timed_calls += 1;
            timed_frames += frames.len() as u64;
        }
        s.send(&frames, timed_span);
        i = j;
    }
    if opts.schedule {
        while clock.now_us() - origin < wl.timed_end_us {
            std::thread::sleep(Duration::from_millis(1));
        }
        ph.enter(&mut s, wl, wl.timed_end_us);
    }
    if realtime {
        procfs::realtime(false);
    }
    // Read before the saturation rounds, whose back-to-back backlog
    // makes the peak vary with how far the sender runs ahead.
    let peak_rss_kb = procfs::peak_rss_kb();
    s.tr.close(timed_span, 0, "schedule", origin, clock.now_us(), 0);
    if let Err(e) = s
        .await_ingress()
        .and_then(|_| s.await_outputs(&gen.expected(wl)))
    {
        errors.push(format!("schedule: {e}"));
    }

    // Saturation: rounds of a fixed budget sent back to back over the
    // one connection, each round once the previous one has drained.
    let mut sat_rounds = Vec::with_capacity(SAT_ROUNDS);
    for round in 0..SAT_ROUNDS {
        let sat = gen.saturation(wl, &handles, round);
        let first_us = clock.now_us();
        let sat_span = s.tr.open();
        for chunk in sat.chunks(SAT_CHUNK) {
            s.send(chunk, sat_span);
        }
        if let Err(e) = s
            .await_ingress()
            .and_then(|_| s.await_outputs(&gen.expected(wl)))
        {
            errors.push(format!("saturation: {e}"));
        }
        s.tr.close(
            sat_span,
            0,
            "saturation",
            first_us,
            clock.now_us(),
            round as u64,
        );
        sat_rounds.push((first_us, sat.len() as u64));
    }
    if wl.windowed {
        // Close the windows the budget left open, so every window the
        // oracle expects has been emitted.
        let mut tail = Vec::new();
        gen.close_windows(wl, &handles, &mut tail);
        s.send(&tail, 0);
        if let Err(e) = s
            .await_ingress()
            .and_then(|_| s.await_outputs(&gen.expected(wl)))
        {
            errors.push(format!("closing windows: {e}"));
        }
    }
    let frames_sent = s.sent;
    let Sender {
        tr: mut tracer,
        capture,
        ..
    } = s;
    let net_losses = (
        live.server.frames_dropped(),
        live.server.gen_rejected_frames(),
        live.server.nacks_sent(),
    );
    let (offset_us, align_width_us) = (live.offset_us, live.align_width_us);
    let rx = teardown(live);

    let mut recover = None;
    if wl.journal && opts.schedule {
        match timed_recover(wl, &dir_of(opts.setups.max(1) - 1), clock, &mut tracer) {
            Ok(r) => recover = Some(r),
            Err(e) => errors.push(e),
        }
        frames_after_snapshot = frames_sent - frames_after_snapshot;
    }
    let mut spans = tracer.spans;
    spans.extend(rx.spans);
    RunData {
        setup_s,
        offset_us,
        align_width_us,
        origin_us: origin,
        outputs: rx.outputs,
        gen,
        lags_us,
        timed_calls,
        timed_frames,
        frames_sent,
        edges: ph.edges,
        cpu: rx.cpu,
        worker_s: rx.worker_s,
        steal: rx.steal,
        sat_rounds,
        net_losses,
        snapshot_ms,
        peak_rss_kb,
        realtime,
        frames_after_snapshot,
        recover,
        capture: capture.map(|(c, _)| c),
        spans,
        errors,
    }
}
