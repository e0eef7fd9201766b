//! Linux `/proc` readers: per-thread scheduler accounting for the
//! runtime's own threads, peak RSS, and host provenance.

use std::collections::HashMap;
use std::fs;

/// One thread's cumulative counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadStat {
    /// Time on CPU (`schedstat` field 1), nanoseconds.
    pub run_ns: u64,
    /// Time runnable but waiting on a run queue (`schedstat` field 2).
    pub wait_ns: u64,
    /// Voluntary context switches (blocking, parking).
    pub vol: u64,
    /// Involuntary context switches (preemption).
    pub invol: u64,
}

impl ThreadStat {
    fn minus(self, base: ThreadStat) -> ThreadStat {
        ThreadStat {
            run_ns: self.run_ns.saturating_sub(base.run_ns),
            wait_ns: self.wait_ns.saturating_sub(base.wait_ns),
            vol: self.vol.saturating_sub(base.vol),
            invol: self.invol.saturating_sub(base.invol),
        }
    }

    fn add(&mut self, o: ThreadStat) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.vol += o.vol;
        self.invol += o.invol;
    }
}

/// `tid -> (thread name, counters)` for every thread whose name starts
/// with `cameo-` — the runtime's workers, serve loops, accept thread
/// and elastic controller. The generator's own threads are excluded.
pub type Threads = HashMap<u32, (String, ThreadStat)>;

/// Read the counters of every live `cameo-*` thread of this process.
pub fn cameo_threads() -> Threads {
    let mut out = Threads::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        let Ok(comm) = fs::read_to_string(base.join("comm")) else {
            continue;
        };
        let comm = comm.trim();
        if !comm.starts_with("cameo-") {
            continue;
        }
        let mut st = ThreadStat::default();
        if let Ok(s) = fs::read_to_string(base.join("schedstat")) {
            let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
            st.run_ns = it.next().unwrap_or(0);
            st.wait_ns = it.next().unwrap_or(0);
        }
        if let Ok(s) = fs::read_to_string(base.join("status")) {
            st.vol = status_field(&s, "voluntary_ctxt_switches:");
            st.invol = status_field(&s, "nonvoluntary_ctxt_switches:");
        }
        out.insert(tid, (comm.to_string(), st));
    }
    out
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Accumulates per-thread counters over a phase from repeated samples.
/// A thread that exits mid-phase (an elastic worker shrunk away) keeps
/// the counters of its last sample, so at most one sampling interval of
/// its time is lost.
#[derive(Default)]
pub struct PhaseCpu {
    start: Threads,
    last: Threads,
}

impl PhaseCpu {
    /// Start the phase at `sample`.
    pub fn begin(sample: Threads) -> Self {
        PhaseCpu {
            last: sample.clone(),
            start: sample,
        }
    }

    /// Fold in a sample taken during (or at the end of) the phase.
    pub fn observe(&mut self, sample: Threads) {
        self.last.extend(sample);
    }

    /// Counters spent during the phase by threads whose name starts
    /// with `prefix`; a thread born mid-phase counts from zero.
    pub fn spent(&self, prefix: &str) -> ThreadStat {
        let mut total = ThreadStat::default();
        for (tid, (comm, st)) in &self.last {
            if comm.starts_with(prefix) {
                let base = self.start.get(tid).map(|(_, s)| *s).unwrap_or_default();
                total.add(st.minus(base));
            }
        }
        total
    }
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// glibc wrapper; `pid == 0` applies to the calling thread.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_OTHER: i32 = 0;
const SCHED_FIFO: i32 = 1;

/// Move the calling thread into (`on`) or out of the real-time FIFO
/// class. The sender runs there while it walks the schedule, so on a
/// host whose cores the runtime keeps busy a due send preempts a worker
/// instead of waiting out its time slice — the stand-in for a load
/// generator on a core of its own. Returns false when the kernel
/// refuses (no privilege); the run then records its lag as it is.
/// Threads inherit the class, so it must be off whenever the thread
/// starts a runtime.
pub fn realtime(on: bool) -> bool {
    let param = SchedParam {
        sched_priority: if on { 10 } else { 0 },
    };
    let policy = if on { SCHED_FIFO } else { SCHED_OTHER };
    // SAFETY: `param` is a live, properly laid-out `struct sched_param`
    // for the duration of the call, which only reads it.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

/// Time the hypervisor took from this machine's CPUs, summed over them
/// (`steal` of the `cpu` line of `/proc/stat`, in clock ticks).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:"))
        .unwrap_or(0)
}

/// The kernel release (`uname -r`).
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit the working directory is checked out at, read from
/// `.git` without spawning `git`; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
