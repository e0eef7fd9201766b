//! In-memory spans around the benchmark's calls into the runtime's
//! public functions. Spans are only recorded in a traced run; they are
//! kept in memory and written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span id: the recording thread's tag in the high 8 bits, a
    /// sequence number below.
    pub id: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: u64,
    /// The call, e.g. `IngestClient::send_many`.
    pub name: &'static str,
    /// Microseconds on the generator clock.
    pub start_us: u64,
    /// Microseconds on the generator clock.
    pub end_us: u64,
    /// The request the call served: a send-call or drain-sweep ordinal,
    /// or a job index for per-job calls.
    pub req: u64,
}

/// The generator clock: microseconds since the benchmark process's
/// epoch, shared by every thread of the generator.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// A per-thread span recorder; a disabled recorder costs one branch.
pub struct Tracer {
    enabled: bool,
    tag: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for the thread tagged `tag`.
    pub fn new(enabled: bool, tag: u8) -> Self {
        Tracer {
            enabled,
            tag: (tag as u64) << 56,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve a span id (0 when disabled), for a span whose children
    /// are recorded before it ends.
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        self.tag | self.next
    }

    /// Record a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        req: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_us,
                end_us,
                req,
            });
        }
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        clock: &Clock,
        parent: u64,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open();
        let start = clock.now_us();
        let out = f();
        self.close(id, parent, name, start, clock.now_us(), req);
        out
    }
}

/// Write `spans` as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_us, s.end_us, s.req
        )?;
    }
    w.flush()
}
