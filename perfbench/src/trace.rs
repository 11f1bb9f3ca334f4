//! The traced run's span log: the benchmark's own spans around each
//! call into a layer, kept in memory and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rime_service::Attribution;

/// Spans kept per run; later spans are counted but not stored, so a
/// long traced run cannot grow without bound.
const CAPACITY: usize = 50_000;

/// One span: a named interval, the span that caused it, and the request
/// (or sort) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log. Ids start at 1; parent 0 marks a root span.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next: u32,
    dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            next: 1,
            dropped: 0,
        }
    }

    /// Nanoseconds from the log's epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, start + dur)` and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        let id = self.next;
        self.next = self.next.wrapping_add(1);
        if self.spans.len() < CAPACITY {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Opens a span whose extent is not known yet (a parent recorded
    /// before its children); [`SpanLog::close`] fills the extent in.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        self.record(name, parent, request, 0, 0)
    }

    /// Sets the extent of a span from [`SpanLog::open`].
    pub fn close(&mut self, id: u32, start: Instant, end: Instant) {
        let s = self.at(start);
        let e = self.at(end);
        // Ids are dense from 1, so a stored span sits at `id - 1`.
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.start_ns = s;
            span.dur_ns = e.saturating_sub(s);
        }
    }

    /// Records the span between two instants.
    pub fn record_between(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let s = self.at(start);
        let e = self.at(end);
        self.record(name, parent, request, s, e.saturating_sub(s))
    }

    /// Records a request's four attributed phases under `parent`, tiled
    /// from its submit time as the service measured them.
    pub fn record_phases(
        &mut self,
        parent: u32,
        request: u64,
        submitted: Instant,
        a: &Attribution,
    ) {
        let mut at = self.at(submitted);
        for (name, dur) in [
            ("sq_wait", a.sq_wait_ns),
            (a.queue_phase.label(), a.queue_wait_ns),
            ("dispatch", a.dispatch_ns),
            ("cq_wait", a.cq_wait_ns),
        ] {
            self.record(name, parent, request, at, dur);
            at += dur;
        }
    }

    /// Spans recorded past the in-memory capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
