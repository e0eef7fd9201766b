//! The four workloads: their jobs, their fixed-rate schedules, and the
//! generator that turns a schedule into wire frames while recording
//! what every output must contain.
//!
//! Every rate here is an absolute constant. None is derived from a
//! saturation measured in the same run, so a change that speeds the
//! runtime up is measured at the same offered load as its parent.

use cameo_bench::slo::driver::runtime_job_spec;
use cameo_bench::slo::schedule::{compile, EventKind};
use cameo_bench::slo::spec::{Arrival, SloSpec, TenantSpec};
use cameo_core::time::{LogicalTime, Micros};
use cameo_dataflow::event::Tuple;
use cameo_dataflow::graph::JobSpec;
use cameo_dataflow::queries::{ipq1, ipq3};
use cameo_runtime::net::IngestFrame;
use cameo_runtime::runtime::JobHandle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};

/// Names accepted by `--workload`, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["tenants", "ipq", "ipq-journal", "spike-elastic"];

/// Warm-up before the timed phase: outputs of inputs scheduled in it
/// are checked but not timed.
const WARMUP_US: u64 = 500_000;

/// The timed phase is cut into slices of this length by scheduled send,
/// and latency percentiles are medians over the slices. A stall of the
/// host (a virtual CPU descheduled for 10–20 ms, a few times a run on a
/// small VM) then moves a few slices, not the result; `p999_us` and
/// the detail's per-slice list still show it. Every periodic pattern
/// in a schedule repeats with this period, so each slice sees the same
/// mix.
pub const SLICE_US: u64 = 500_000;

/// Rounds of the saturation budget; `sat_hz` is their median.
pub const SAT_ROUNDS: usize = 7;

/// IPQ window size, in logical microseconds (event time = scheduled
/// send time).
const WINDOW_US: u64 = 2_000;
/// IPQ lockstep tick: every source of both queries sends one frame.
const TICK_US: u64 = 400;
/// Tuples per IPQ frame.
const IPQ_TUPLES: usize = 4;
/// Key universe before the queries' own `key % keys` parse step.
const KEY_SPACE: usize = 1024;
/// IPQ3's Zipf exponent over `KEY_SPACE`.
const ZIPF_S: f64 = 1.1;

/// How a job's frames are built and its outputs checked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Ingest → `SpinMap`: one output per input frame, its one tuple
    /// keyed by the frame's sequence number (exactly-once oracle).
    Spin,
    /// A windowed aggregation: per-window aggregates compared with the
    /// generator's reference. `modulo` is the query's group-by
    /// cardinality, `count` selects Count over Sum.
    Window {
        modulo: u64,
        count: bool,
        zipf: bool,
    },
}

/// One deployed job.
pub struct JobDef {
    /// The dataflow (its name is unique within the workload).
    pub spec: JobSpec,
    /// Builds another copy of `spec` (specs hold operator factories and
    /// are not `Clone`); recovery's registry needs its own.
    pub make: Box<dyn Fn() -> JobSpec>,
    /// The deadline each output is judged against.
    pub deadline_us: u64,
    /// Member of the tightest-deadline class (`tight_p99_us`).
    pub tight: bool,
    /// Ingest sources (frames of one tick go to every source).
    pub sources: u32,
    /// Frame and oracle shape.
    pub shape: Shape,
    /// Share of the saturation budget (spin workloads).
    pub sat_weight: f64,
}

/// A workload: jobs, runtime options and the open-loop schedule.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Deployed jobs, in deploy order.
    pub jobs: Vec<JobDef>,
    /// Windowed (lockstep ticks) rather than per-frame arrivals.
    pub windowed: bool,
    /// Elastic runtime with a 1..=4 worker band.
    pub elastic: bool,
    /// Write-ahead journal with `FsyncPolicy::Never`, a snapshot at
    /// mid-horizon and a timed recovery at the end.
    pub journal: bool,
    /// Start of the timed phase (µs from the schedule origin).
    pub timed_start_us: u64,
    /// End of the timed phase.
    pub timed_end_us: u64,
    /// Schedule instants: `(at_us, job)`; `job == ALL_JOBS` is a
    /// lockstep tick for every source of every job.
    pub instants: Vec<(u64, u16)>,
    /// Frames in the back-to-back saturation budget.
    pub sat_frames: usize,
    /// Frames replayed into zero-worker runtimes by the traced run.
    pub replay_cap: usize,
}

/// Marker job index of a lockstep tick.
pub const ALL_JOBS: u16 = u16::MAX;

fn tenant(name: &str, jobs: u32, arrival: Arrival, deadline_ms: u64, burn_us: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        jobs,
        arrival,
        latency_target_us: deadline_ms * 1_000,
        burn_us,
        deploy_at_us: 0,
        undeploy_at_us: None,
    }
}

fn poisson(rate_hz: f64) -> Arrival {
    Arrival::Poisson { rate_hz }
}

/// Compile one segment of tenants with the shared schedule compiler and
/// append its arrivals, shifted by `base_us`, as `(at_us, job)` with
/// jobs numbered in tenant order.
fn append_segment(
    out: &mut Vec<(u64, u16)>,
    tenants: Vec<TenantSpec>,
    base_us: u64,
    dur_us: u64,
    seed: u64,
) {
    let spec = SloSpec {
        name: "segment".into(),
        duration_us: dur_us,
        seed,
        workers: 1,
        tuples_per_msg: 1,
        tenants,
    };
    let first: Vec<u16> = spec
        .tenants
        .iter()
        .scan(0u16, |acc, t| {
            let b = *acc;
            *acc += t.jobs as u16;
            Some(b)
        })
        .collect();
    for ev in compile(&spec, seed, 1.0, None).events {
        if ev.kind == EventKind::Arrival {
            out.push((
                base_us + ev.at_us,
                first[ev.tenant as usize] + ev.job as u16,
            ));
        }
    }
}

fn spin_jobs(tenants: &[TenantSpec], horizon_us: u64) -> Vec<JobDef> {
    let tightest = tenants
        .iter()
        .map(|t| t.latency_target_us)
        .min()
        .unwrap_or(0);
    let mut jobs = Vec::new();
    for t in tenants {
        for j in 0..t.jobs {
            let (t2, name) = (t.clone(), format!("{}-{j}", t.name));
            jobs.push(JobDef {
                spec: runtime_job_spec(t, &name),
                make: Box::new(move || runtime_job_spec(&t2, &name)),
                deadline_us: t.latency_target_us,
                tight: t.latency_target_us == tightest,
                sources: 1,
                shape: Shape::Spin,
                sat_weight: t.arrival.mean(horizon_us),
            });
        }
    }
    jobs
}

impl Workload {
    /// The named workload measured over `seconds`, scheduled from
    /// `seed`. `smoke` shrinks the fixed budgets for the smoke test.
    pub fn new(name: &str, seed: u64, seconds: u64, smoke: bool) -> Option<Workload> {
        let timed_us = seconds * 1_000_000;
        let (start, end) = (WARMUP_US, WARMUP_US + timed_us);
        let shrink = |n: usize| if smoke { n / 10 } else { n };
        let wl = match name {
            // Multi-tenant spike (§6.2): two interactive jobs, one
            // analytics job and one bursty job whose bursts exceed the
            // host's saturation while the mean stays well below it.
            "tenants" => {
                let tenants = vec![
                    tenant("interactive", 2, poisson(900.0), 25, 150),
                    tenant("analytics", 1, poisson(300.0), 200, 500),
                    tenant(
                        "bursty",
                        1,
                        Arrival::Bursty {
                            rate_hz: 300.0,
                            factor: 25.0,
                            on_ms: 60,
                            off_ms: 440,
                        },
                        100,
                        200,
                    ),
                ];
                let mut instants = Vec::new();
                append_segment(&mut instants, tenants.clone(), 0, end, seed);
                Workload {
                    name: "tenants",
                    jobs: spin_jobs(&tenants, end),
                    windowed: false,
                    elastic: false,
                    journal: false,
                    timed_start_us: start,
                    timed_end_us: end,
                    instants,
                    sat_frames: shrink(4_000),
                    replay_cap: shrink(4_000),
                }
            }
            // IPQ1 (tight) and IPQ3 (lax, Zipf keys) in lockstep ticks:
            // cheap operators, so per-frame ingest cost dominates.
            "ipq" | "ipq-journal" => {
                let jobs = vec![
                    JobDef {
                        spec: ipq1(WINDOW_US, Micros(10_000)),
                        make: Box::new(|| ipq1(WINDOW_US, Micros(10_000))),
                        deadline_us: 10_000,
                        tight: true,
                        sources: 8,
                        shape: Shape::Window {
                            modulo: 64,
                            count: false,
                            zipf: false,
                        },
                        sat_weight: 1.0,
                    },
                    JobDef {
                        spec: ipq3(WINDOW_US, Micros(100_000)),
                        make: Box::new(|| ipq3(WINDOW_US, Micros(100_000))),
                        deadline_us: 100_000,
                        tight: false,
                        sources: 8,
                        shape: Shape::Window {
                            modulo: 256,
                            count: true,
                            zipf: true,
                        },
                        sat_weight: 1.0,
                    },
                ];
                // Ticks run one window and a tick past the timed phase,
                // so every timed window is closed by an on-schedule tick.
                let horizon = end + WINDOW_US + TICK_US;
                let instants = (1..)
                    .map(|n| n * TICK_US)
                    .take_while(|&t| t < horizon)
                    .map(|t| (t, ALL_JOBS))
                    .collect();
                Workload {
                    name: if name == "ipq" { "ipq" } else { "ipq-journal" },
                    jobs,
                    windowed: true,
                    elastic: false,
                    journal: name == "ipq-journal",
                    timed_start_us: start,
                    timed_end_us: end,
                    instants,
                    sat_frames: shrink(24_000),
                    replay_cap: shrink(20_000),
                }
            }
            // Quiet → step above capacity → quiet, against the elastic
            // runtime (claim iii). Each slice of the timed phase is one
            // such cycle, the step covering its middle fifth, so every
            // slice sees the controller react to one step.
            "spike-elastic" => {
                let mix = |step_hz: f64| {
                    vec![
                        tenant("interactive", 1, poisson(1_200.0), 20, 150),
                        tenant("stepper", 1, poisson(step_hz), 150, 250),
                    ]
                };
                let mut instants = Vec::new();
                let mut stream = seed;
                let mut segment = |instants: &mut Vec<(u64, u16)>, from: u64, to: u64, hz: f64| {
                    append_segment(instants, mix(hz), from, to - from, stream);
                    stream = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
                };
                segment(&mut instants, 0, start, 800.0);
                for at in (start..end).step_by(SLICE_US as usize) {
                    let step = at + SLICE_US * 2 / 5;
                    segment(&mut instants, at, step, 800.0);
                    segment(&mut instants, step, step + SLICE_US / 5, 12_000.0);
                    segment(&mut instants, step + SLICE_US / 5, at + SLICE_US, 800.0);
                }
                Workload {
                    name: "spike-elastic",
                    jobs: spin_jobs(&mix(800.0), end),
                    windowed: false,
                    elastic: true,
                    journal: false,
                    timed_start_us: start,
                    timed_end_us: end,
                    instants,
                    sat_frames: shrink(4_000),
                    replay_cap: shrink(4_000),
                }
            }
            _ => return None,
        };
        Some(wl)
    }

    /// Whether an input scheduled at `sched_us` belongs to the timed
    /// phase.
    pub fn timed(&self, sched_us: u64) -> bool {
        (self.timed_start_us..self.timed_end_us).contains(&sched_us)
    }

    /// Frames the schedule sends (the saturation budget excluded).
    pub fn scheduled_frames(&self) -> usize {
        if self.windowed {
            self.instants.len() * self.jobs.iter().map(|j| j.sources as usize).sum::<usize>()
        } else {
            self.instants.len()
        }
    }

    /// About how many outputs a run emits, to size buffers up front:
    /// growing them by doubling would make peak RSS step with each
    /// seed's exact count.
    pub fn outputs_estimate(&self) -> usize {
        let sat = SAT_ROUNDS * self.sat_frames;
        if self.windowed {
            let per_tick: usize = self.jobs.iter().map(|j| j.sources as usize).sum();
            let ticks = self.instants.len() + sat / per_tick.max(1);
            (ticks * TICK_US as usize / WINDOW_US as usize + 16) * self.jobs.len()
        } else {
            self.instants.len() + sat
        }
    }

    /// Slices of the timed phase.
    pub fn slices(&self) -> usize {
        (((self.timed_end_us - self.timed_start_us) / SLICE_US) as usize).max(1)
    }

    /// The slice of the timed phase an input scheduled at `sched_us`
    /// falls in (`sched_us` must be timed).
    pub fn slice(&self, sched_us: u64) -> usize {
        (((sched_us - self.timed_start_us) / SLICE_US) as usize).min(self.slices() - 1)
    }
}

/// Where the input that closes an output came from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Origin {
    /// The open-loop schedule, at this scheduled send (µs).
    Scheduled(u64),
    /// The saturation budget of this round.
    Saturation(usize),
    /// A closing tick, sent only to close windows.
    #[default]
    Closing,
}

/// What one window of one job must contain.
#[derive(Default)]
pub struct WindowRef {
    /// Origin of the window's last contributing tick.
    pub origin: Origin,
    /// Expected aggregate per group-by key, while ticks still add to
    /// the window.
    groups: HashMap<u64, i64>,
    /// `digest` of the expected output, once a later tick closed the
    /// window (the groups are dropped then, so the reference costs a
    /// few words per window, not per group).
    pub digest: Option<(u64, usize)>,
}

/// Order-sensitive digest and length of a window output's
/// `(key, value)` pairs (FNV-1a over their bytes). The runtime emits a
/// window's tuples sorted by key, and the reference is sorted the same
/// way.
pub fn digest(pairs: impl Iterator<Item = (u64, i64)>) -> (u64, usize) {
    let (mut h, mut n) = (0xcbf2_9ce4_8422_2325u64, 0);
    for (k, v) in pairs {
        for b in k.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        n += 1;
    }
    (h, n)
}

/// Builds frames from the schedule and records the expected outputs.
pub struct Gen {
    rng: ChaCha8Rng,
    zipf_cdf: Vec<f64>,
    /// Spin jobs: origin of each frame, by sequence number.
    pub origin: Vec<Origin>,
    /// Spin jobs: the job each sequence number was sent to.
    pub job_of: Vec<u16>,
    /// Windowed jobs: expected windows by window id, per job.
    pub windows: Vec<BTreeMap<u64, WindowRef>>,
    /// Highest logical time sent so far.
    pub last_lt: u64,
    /// Frames sent so far, per job.
    pub sent: Vec<u64>,
}

impl Gen {
    /// A generator for `wl` drawing keys and values from `seed`.
    pub fn new(wl: &Workload, seed: u64) -> Gen {
        let mut zipf_cdf = Vec::with_capacity(KEY_SPACE);
        let mut acc = 0.0;
        for k in 1..=KEY_SPACE {
            acc += 1.0 / (k as f64).powf(ZIPF_S);
            zipf_cdf.push(acc);
        }
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        let frames = if wl.windowed {
            0
        } else {
            wl.instants.len() + SAT_ROUNDS * wl.sat_frames
        };
        Gen {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6b65_7973),
            zipf_cdf,
            origin: Vec::with_capacity(frames),
            job_of: Vec::with_capacity(frames),
            windows: wl.jobs.iter().map(|_| BTreeMap::new()).collect(),
            last_lt: 0,
            sent: vec![0; wl.jobs.len()],
        }
    }

    fn spin_frame(&mut self, handle: JobHandle, job: u16, origin: Origin, lt: u64) -> IngestFrame {
        let seq = self.origin.len() as u64;
        self.origin.push(origin);
        self.job_of.push(job);
        self.sent[job as usize] += 1;
        self.last_lt = self.last_lt.max(lt);
        IngestFrame::addressed(handle, 0, vec![Tuple::new(seq, 1, LogicalTime(lt))])
    }

    /// One frame per source of every job at logical time `lt`.
    fn tick(
        &mut self,
        wl: &Workload,
        handles: &[JobHandle],
        lt: u64,
        origin: Origin,
        out: &mut Vec<IngestFrame>,
    ) {
        self.last_lt = lt;
        let wid = lt / WINDOW_US;
        for (j, def) in wl.jobs.iter().enumerate() {
            let Shape::Window {
                modulo,
                count,
                zipf,
            } = def.shape
            else {
                continue;
            };
            // Ticks arrive in event-time order, so every earlier window
            // is complete: seal it.
            for (_, w) in self.windows[j].range_mut(..wid).rev() {
                if w.digest.is_some() {
                    break;
                }
                let mut groups: Vec<(u64, i64)> =
                    std::mem::take(&mut w.groups).into_iter().collect();
                groups.sort_unstable();
                w.digest = Some(digest(groups.into_iter()));
            }
            let win = self.windows[j].entry(wid).or_default();
            win.origin = origin;
            for source in 0..def.sources {
                let mut tuples = Vec::with_capacity(IPQ_TUPLES);
                for _ in 0..IPQ_TUPLES {
                    let key = if zipf {
                        let u: f64 = self.rng.gen_range(0.0..1.0);
                        self.zipf_cdf.partition_point(|&c| c < u).min(KEY_SPACE - 1) as u64
                    } else {
                        self.rng.gen_range(0..KEY_SPACE as u64)
                    };
                    let value: i64 = self.rng.gen_range(1..=100);
                    *win.groups.entry(key % modulo).or_insert(0) += if count { 1 } else { value };
                    tuples.push(Tuple::new(key, value, LogicalTime(lt)));
                }
                self.sent[j] += 1;
                out.push(IngestFrame::addressed(handles[j], source, tuples));
            }
        }
    }

    /// Frames of the schedule instant `(at_us, job)`.
    pub fn instant(
        &mut self,
        wl: &Workload,
        handles: &[JobHandle],
        at_us: u64,
        job: u16,
        out: &mut Vec<IngestFrame>,
    ) {
        if job == ALL_JOBS {
            self.tick(wl, handles, at_us, Origin::Scheduled(at_us), out);
        } else {
            let f = self.spin_frame(
                handles[job as usize],
                job,
                Origin::Scheduled(at_us),
                at_us + 1,
            );
            out.push(f);
        }
    }

    /// Round `round` of the back-to-back saturation budget: spin frames
    /// spread over the jobs by their mean rates, or lockstep ticks
    /// continuing the windowed jobs' event time, followed by one
    /// closing tick.
    pub fn saturation(
        &mut self,
        wl: &Workload,
        handles: &[JobHandle],
        round: usize,
    ) -> Vec<IngestFrame> {
        let mut out = Vec::with_capacity(wl.sat_frames + 64);
        if wl.windowed {
            let per_tick: usize = wl.jobs.iter().map(|j| j.sources as usize).sum();
            let mut lt = self.last_lt;
            for _ in 0..wl.sat_frames / per_tick {
                lt += TICK_US;
                self.tick(wl, handles, lt, Origin::Saturation(round), &mut out);
            }
            self.close_windows(wl, handles, &mut out);
        } else {
            let total: f64 = wl.jobs.iter().map(|j| j.sat_weight).sum();
            let lt0 = self.last_lt + 1;
            for i in 0..wl.sat_frames as u64 {
                let mut u: f64 = self.rng.gen_range(0.0..total);
                let mut job = 0;
                while job + 1 < wl.jobs.len() && u >= wl.jobs[job].sat_weight {
                    u -= wl.jobs[job].sat_weight;
                    job += 1;
                }
                out.push(self.spin_frame(
                    handles[job],
                    job as u16,
                    Origin::Saturation(round),
                    lt0 + i,
                ));
            }
        }
        out
    }

    /// One tick a whole window ahead, closing every window that holds
    /// data. Its own window stays open until later ticks close it.
    pub fn close_windows(
        &mut self,
        wl: &Workload,
        handles: &[JobHandle],
        out: &mut Vec<IngestFrame>,
    ) {
        let lt = (self.last_lt / WINDOW_US + 1) * WINDOW_US + TICK_US;
        self.tick(wl, handles, lt, Origin::Closing, out);
    }

    /// Outputs each job must have emitted once every frame sent so far
    /// has been processed: one per frame for spin jobs, one per closed
    /// window for windowed jobs.
    pub fn expected(&self, wl: &Workload) -> Vec<u64> {
        let open = self.last_lt / WINDOW_US;
        wl.jobs
            .iter()
            .enumerate()
            .map(|(j, def)| match def.shape {
                Shape::Spin => self.sent[j],
                Shape::Window { .. } => self.windows[j].range(..open).count() as u64,
            })
            .collect()
    }

    /// The window id an output batch of a windowed job closes.
    pub fn window_of(progress: LogicalTime) -> u64 {
        (progress.0 / WINDOW_US).saturating_sub(1)
    }
}
