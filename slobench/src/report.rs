//! Output oracles, latency attribution and the metric set.

use crate::drive::RunData;
use crate::workload::{Gen, Origin, Shape, Workload, SAT_ROUNDS, SLICE_US};
use cameo_core::time::LogicalTime;
use std::collections::HashMap;

/// Tolerance of the latency-split sum check, in µs: the clock
/// alignment is good to about one microsecond and every stamp is
/// truncated to whole microseconds.
pub const SPLIT_TOLERANCE_US: f64 = 5.0;

/// A generator run is flagged as lagging when the 99th percentile of
/// its send lag exceeds this: its latencies then measure the generator.
pub const LAG_LIMIT_US: f64 = 1_000.0;

/// Which quantile of the per-slice latencies of the least-steal half of
/// the slices a latency metric reports.
const SLICE_QUANTILE: f64 = 0.10;

/// Steal above this (ms per second of the timed phase, summed over the
/// CPUs) marks a run as disturbed by the host. A calm 2-vCPU host lost
/// 1–12 ms/s; a run with 34 ms/s read 60 % above the others on `ipq`
/// tails, and the host's busy spells took 80–730 ms/s.
pub const DISTURBED_STEAL_MS_PER_S: f64 = 25.0;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Steal time this close before or after a slice still counts against
/// it: a stall just before a slice delays its first outputs, one just
/// after delays its last.
const STEAL_MARGIN_US: u64 = 20_000;

/// One timed output's latency and its split, in µs.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Scheduled send of the closing input → emission.
    pub e2e: f64,
    /// Scheduled send → the runtime's arrival stamp.
    pub ingress: f64,
    /// The runtime's own `OutputEvent.latency`.
    pub runtime: f64,
    /// Emission → receipt by the generator.
    pub egress: f64,
    /// Output of a tightest-deadline job.
    pub tight: bool,
    /// Slice of the timed phase its closing input was scheduled in.
    pub slice: usize,
}

/// What the oracles and the latency attribution found.
#[derive(Default)]
pub struct Analysis {
    /// Timed outputs, in receipt order.
    pub samples: Vec<Sample>,
    /// Outputs whose closing input was scheduled in the timed phase.
    pub expected_timed: u64,
    /// Timed outputs later than their job's deadline.
    pub late: u64,
    /// Timed outputs never emitted.
    pub missing_timed: u64,
    /// Expected outputs never emitted (any phase).
    pub missing: u64,
    /// Outputs emitted more than once.
    pub duplicates: u64,
    /// Outputs whose content differs from the reference, or that
    /// answer no input.
    pub mismatches: u64,
    /// Windowed outputs received.
    pub windows: u64,
    /// Latest emission of each saturation round's outputs (generator
    /// clock, µs).
    pub sat_last_us: [Option<i64>; SAT_ROUNDS],
    /// Outputs whose split failed the sum check.
    pub sum_violations: u64,
    /// Slices of the timed phase.
    pub slices: usize,
    /// Hypervisor steal ticks during each slice.
    pub steal_by_slice: Vec<u64>,
    /// CPU time the hypervisor took from the host per second of the
    /// timed phase, summed over the CPUs (ms/s).
    pub steal_ms_per_s: f64,
}

impl Analysis {
    /// Outputs failing the correctness check.
    pub fn failures(&self) -> u64 {
        self.missing + self.duplicates + self.mismatches
    }

    /// `(late + missing) / expected` over the timed phase.
    pub fn miss_rate(&self) -> f64 {
        (self.late + self.missing_timed) as f64 / self.expected_timed.max(1) as f64
    }

    /// Whether the hypervisor took more CPU time than a calm host
    /// loses during the timed phase.
    pub fn host_disturbed(&self) -> bool {
        self.steal_ms_per_s > DISTURBED_STEAL_MS_PER_S
    }

    /// Each slice's quantile `q` of the latency of the samples `keep`
    /// selects.
    pub fn by_slice(&self, q: f64, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        (0..self.slices)
            .map(|k| {
                let v: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.slice == k && keep(s))
                    .map(|s| s.e2e)
                    .collect();
                quantile(&v, q)
            })
            .collect()
    }

    /// The 10th percentile of `by_slice(q, keep)` over the half of the
    /// slices (rounded up) the hypervisor took the least CPU time in,
    /// earliest first on ties. The steal screens out the stalls it saw;
    /// the low percentile screens out those between its 10 ms ticks.
    pub fn sliced(&self, q: f64, keep: impl Fn(&Sample) -> bool) -> f64 {
        let per = self.by_slice(q, keep);
        let mut by_steal: Vec<usize> = (0..self.slices).collect();
        by_steal.sort_by_key(|&k| self.steal_by_slice[k]);
        by_steal.truncate(self.slices.div_ceil(2));
        let least: Vec<f64> = by_steal.into_iter().map(|k| per[k]).collect();
        quantile(&least, SLICE_QUANTILE)
    }
}

/// Judge every output of `run` and attribute the timed ones' latency.
pub fn analyze(wl: &Workload, run: &RunData) -> Analysis {
    let mut a = Analysis {
        slices: wl.slices(),
        ..Analysis::default()
    };
    let steal_at = |t: u64| {
        let i = run.steal.partition_point(|&(at, _)| at <= t);
        run.steal[i.saturating_sub(1).min(run.steal.len() - 1)].1
    };
    a.steal_by_slice = (0..a.slices as u64)
        .map(|k| {
            let from = run.origin_us + wl.timed_start_us + k * SLICE_US;
            steal_at(from + SLICE_US + STEAL_MARGIN_US)
                - steal_at(from.saturating_sub(STEAL_MARGIN_US))
        })
        .collect();
    let timed_us = wl.timed_end_us - wl.timed_start_us;
    let from = run.origin_us + wl.timed_start_us;
    a.steal_ms_per_s = (steal_at(from + timed_us) - steal_at(from)) as f64 * 1e3
        / USER_HZ
        / (timed_us as f64 / 1e6);
    let gen = &run.gen;
    let mut seen_seq = vec![0u32; gen.origin.len()];
    let mut seen_win: Vec<HashMap<u64, u32>> = wl.jobs.iter().map(|_| HashMap::new()).collect();
    for out in &run.outputs {
        let j = out.job as usize;
        let def = &wl.jobs[j];
        let emitted = out.at as i64 + run.offset_us;
        // Where the output's closing input came from; `None` when the
        // output answers no input the generator sent.
        let closing: Option<Origin> = match (def.shape, out.key) {
            (Shape::Spin, Some(seq))
                if (seq as usize) < gen.origin.len() && gen.job_of[seq as usize] as usize == j =>
            {
                seen_seq[seq as usize] += 1;
                Some(gen.origin[seq as usize])
            }
            (Shape::Window { .. }, Some(progress)) => {
                a.windows += 1;
                let wid = Gen::window_of(LogicalTime(progress));
                gen.windows[j].get(&wid).map(|w| {
                    *seen_win[j].entry(wid).or_insert(0) += 1;
                    if w.digest != Some(out.digest) {
                        a.mismatches += 1;
                    }
                    w.origin
                })
            }
            _ => None,
        };
        if closing.is_none() {
            a.mismatches += 1;
        }
        match closing {
            Some(Origin::Scheduled(sched)) if wl.timed(sched) => {
                let sent = (run.origin_us + sched) as i64;
                let e2e = (emitted - sent) as f64;
                let arrival = out.at as i64 - out.latency as i64 + run.offset_us;
                let s = Sample {
                    e2e,
                    ingress: (arrival - sent) as f64,
                    runtime: out.latency as f64,
                    egress: (out.receipt as i64 - emitted) as f64,
                    tight: def.tight,
                    slice: wl.slice(sched),
                };
                if s.ingress < -SPLIT_TOLERANCE_US
                    || s.egress < -SPLIT_TOLERANCE_US
                    || (s.ingress + s.runtime - s.e2e).abs() > SPLIT_TOLERANCE_US
                {
                    a.sum_violations += 1;
                }
                if e2e > def.deadline_us as f64 {
                    a.late += 1;
                }
                a.samples.push(s);
            }
            Some(Origin::Saturation(r)) => {
                a.sat_last_us[r] = Some(a.sat_last_us[r].map_or(emitted, |l| l.max(emitted)));
            }
            _ => {}
        }
    }
    let timed = |o: &Origin| matches!(o, Origin::Scheduled(s) if wl.timed(*s));
    for (seq, &n) in seen_seq.iter().enumerate() {
        let t = timed(&gen.origin[seq]);
        a.expected_timed += t as u64;
        match n {
            0 => {
                a.missing += 1;
                a.missing_timed += t as u64;
            }
            n => a.duplicates += n as u64 - 1,
        }
    }
    let expected = gen.expected(wl);
    for (j, def) in wl.jobs.iter().enumerate() {
        if !matches!(def.shape, Shape::Window { .. }) {
            continue;
        }
        for (wid, w) in gen.windows[j].iter().take(expected[j] as usize) {
            let t = timed(&w.origin);
            a.expected_timed += t as u64;
            match seen_win[j].get(wid).copied().unwrap_or(0) {
                0 => {
                    a.missing += 1;
                    a.missing_timed += t as u64;
                }
                n => a.duplicates += n as u64 - 1,
            }
        }
    }
    a
}

/// Quantile `q` in `[0, 1]` of `v`, interpolating between order
/// statistics; 0 for an empty set.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Ordered `(name, unit, value)` triples.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite number as JSON (non-finite values become 0 and are
/// reported by the caller as an error).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
