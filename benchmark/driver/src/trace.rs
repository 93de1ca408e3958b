//! The benchmark's clock, its pacing, and its span recorder.
//!
//! Spans are recorded from the driver's side of each public call into a
//! layer (choosing-metrics §4): name, start, end, the span that caused it,
//! and a journey id (block height or request id) shared by the spans of
//! one block or request. They stay in memory until the run ends. With the
//! tracer off, [`Tracer::leaf`] is a plain call: no clock reads, no
//! allocation — that is the run end-to-end metrics come from. Pacing
//! ([`crate::pace`]) is on either way: both runs report times at
//! reference speed.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
// dcert-lint: allow(r3-determinism, reason = "the benchmark exists to measure wall time; this is its one clock")
use std::time::Instant;

use crate::pace::{Paced, REFERENCE_NS};

/// Monotonic nanoseconds since the clock was started.
#[derive(Clone, Copy)]
pub struct Clock {
    // dcert-lint: allow(r3-determinism, reason = "the benchmark exists to measure wall time; this is its one clock")
    origin: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            // dcert-lint: allow(r3-determinism, reason = "the benchmark exists to measure wall time; this is its one clock")
            origin: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub journey: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<u32>,
    /// The pacing segment the span began in.
    pub segment: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A count or sub-duration the callee returned (for example a field of
/// `CertBreakdown`), recorded at the same boundary as its span.
struct Detail {
    span: u32,
    key: &'static str,
    value: u64,
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    pub clock: Clock,
    pub pace: Paced,
    spans: Vec<Span>,
    details: Vec<Detail>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// Spans written to the trace file; a run can record a million, and the
/// file is for reading. Metrics always use every span.
const MAX_SPANS_IN_FILE: usize = 50_000;

impl Tracer {
    /// A tracer that records spans iff `on`, pacing `channels` series.
    pub fn new(on: bool, channels: usize) -> Self {
        let clock = Clock::start();
        Tracer {
            on,
            clock,
            pace: Paced::start(clock, channels),
            spans: Vec::new(),
            details: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, journey: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans in one run");
        self.spans.push(Span {
            name,
            journey,
            parent: self.stack.last().copied(),
            segment: self.pace.segment() as u32,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Open(Some(index)) = open else { return };
        let now = self.clock.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = now;
        }
    }

    /// Records `f` as one span under the innermost open span.
    pub fn leaf<T>(&mut self, name: &'static str, journey: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let open = self.begin(name, journey);
        let value = f();
        self.end(open);
        value
    }

    /// Attaches a count or sub-duration to the most recently recorded span.
    pub fn detail(&mut self, key: &'static str, value: u64) {
        if let Some(last) = self.spans.len().checked_sub(1) {
            self.details.push(Detail {
                span: last as u32,
                key,
                value,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn selected<'a>(&'a self, name: &'a str, from_journey: u64) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.journey >= from_journey)
    }

    /// Paced durations (ns at reference speed) of every span called
    /// `name` whose journey id is at least `from_journey` (the warm-up cut).
    pub fn durations(&self, name: &str, from_journey: u64) -> Vec<f64> {
        self.selected(name, from_journey)
            .map(|s| s.duration_ns() as f64 * self.pace.factor(s.segment as usize))
            .collect()
    }

    /// Values of detail `key` on spans called `name`, after the warm-up
    /// cut; `paced` scales them like durations (for sub-durations).
    pub fn details(&self, name: &str, key: &str, from_journey: u64, paced: bool) -> Vec<f64> {
        self.details
            .iter()
            .filter(|d| d.key == key)
            .filter_map(|d| {
                let span = self.spans.get(d.span as usize)?;
                (span.name == name && span.journey >= from_journey).then(|| {
                    let factor = if paced {
                        self.pace.factor(span.segment as usize)
                    } else {
                        1.0
                    };
                    d.value as f64 * factor
                })
            })
            .collect()
    }

    /// Paced self time of each span called `name`: its duration minus the
    /// part its direct children cover.
    pub fn self_times(&self, name: &str, from_journey: u64) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| covered.get_mut(p as usize)) {
                *slot += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name && s.journey >= from_journey)
            .map(|(s, children)| {
                s.duration_ns().saturating_sub(children) as f64
                    * self.pace.factor(s.segment as usize)
            })
            .collect()
    }

    /// Writes the trace as JSON (`benchmark/out/trace-<workload>.json`):
    /// the pacing beats, then one object per span as measured (raw ns),
    /// at most [`MAX_SPANS_IN_FILE`] of them.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let written = self.spans.len().min(MAX_SPANS_IN_FILE);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since run start, monotonic, as measured\",\
             \"reference_kernel_ns\":{REFERENCE_NS},\"beats\":["
        )?;
        for (i, (at, kernel_ns)) in self.pace.beats().iter().enumerate() {
            write!(out, "{}[{at},{kernel_ns}]", if i > 0 { "," } else { "" })?;
        }
        write!(
            out,
            "],\"spans_recorded\":{},\"spans_written\":{written},\"spans\":[",
            self.spans.len()
        )?;
        let mut details = self.details.iter().peekable();
        for (id, span) in self.spans.iter().take(written).enumerate() {
            if id > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"journey\":{},\"segment\":{},\"parent\":",
                span.name, span.journey, span.segment
            )?;
            match span.parent {
                Some(parent) => write!(out, "{parent}")?,
                None => out.write_all(b"null")?,
            }
            write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}",
                span.start_ns, span.end_ns
            )?;
            // Details were pushed in span order.
            let mut first = true;
            while let Some(detail) = details.next_if(|d| d.span as usize <= id) {
                if detail.span as usize == id {
                    out.write_all(if first { b",\"detail\":{" } else { b"," })?;
                    write!(out, "\"{}\":{}", detail.key, detail.value)?;
                    first = false;
                }
            }
            out.write_all(if first { b"}" } else { b"}}" })?;
        }
        out.write_all(b"\n]}\n")?;
        // `BufWriter` drops write errors; surface them.
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing_and_still_runs_the_call() {
        let mut tracer = Tracer::new(false, 1);
        let outer = tracer.begin("journey", 1);
        assert_eq!(tracer.leaf("layer", 1, || 7), 7);
        tracer.end(outer);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn children_nest_under_the_open_span_and_self_time_excludes_them() {
        let mut tracer = Tracer::new(true, 1);
        let outer = tracer.begin("journey", 5);
        tracer.leaf("a", 5, || std::hint::black_box((0..1000).sum::<u64>()));
        tracer.detail("bytes", 42);
        tracer.leaf("b", 5, || ());
        tracer.end(outer);
        tracer.pace.beat();
        tracer.leaf("after", 6, || ());

        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None, "closed spans stop being parents");
        assert_eq!((spans[0].segment, spans[3].segment), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        // Durations come back paced by their segment's factor.
        let factor = tracer.pace.factor(0);
        let own = tracer.self_times("journey", 0)[0];
        let children = (spans[1].duration_ns() + spans[2].duration_ns()) as f64 * factor;
        let whole = tracer.durations("journey", 0)[0];
        assert!((own + children - whole).abs() < 1e-6 * whole.max(1.0));
        assert_eq!(tracer.details("a", "bytes", 0, false), vec![42.0]);
        assert_eq!(tracer.details("a", "bytes", 0, true), vec![42.0 * factor]);
        assert!(tracer.durations("a", 6).is_empty(), "warm-up cut applies");
    }

    #[test]
    fn the_trace_file_is_valid_json_with_details_on_their_spans() {
        let mut tracer = Tracer::new(true, 1);
        let outer = tracer.begin("journey", 1);
        tracer.leaf("core.ci.certify", 1, || ());
        tracer.detail("ecalls", 3);
        tracer.detail("request_bytes", 1024);
        tracer.leaf("plain", 1, || ());
        tracer.end(outer);
        tracer.pace.beat();
        // Under the benchmark's own (git-ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-test-{}.json", std::process::id()));
        tracer.write_json(&path, "blocks_kv").unwrap();
        let doc = crate::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(
            doc.get("workload").and_then(|w| w.as_str()),
            Some("blocks_kv")
        );
        assert_eq!(
            doc.get("beats").and_then(|b| b.as_array()).map(<[_]>::len),
            Some(2)
        );
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        let detail = spans[1].get("detail").unwrap();
        assert_eq!(detail.get("ecalls").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            detail.get("request_bytes").and_then(|v| v.as_f64()),
            Some(1024.0)
        );
        assert!(spans[2].get("detail").is_none());
    }
}
