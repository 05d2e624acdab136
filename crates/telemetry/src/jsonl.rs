//! Streaming JSONL trace writer ([`JsonlSink`]) and the matching offline
//! reader ([`Trace`]).
//!
//! The format is one flat JSON object per line. The first line is a
//! header `{"e":"hdr","v":1}`, followed by zero or more job-name lines
//! `{"e":"job","job":0,"name":"..."}`, then events tagged by
//! [`EventKind::name`] (`{"e":"cwnd","t":...,...}`). Everything is
//! hand-rolled — the crate is a dependency-free leaf — so the parser
//! accepts exactly the flat subset the writer produces.

use crate::event::{DropReason, EventKind, FaultKind, PhaseKind, RetxKind, TelemetryEvent};
use crate::json::{push_f64, push_string};
use crate::sink::TelemetrySink;
use std::any::Any;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Trace format version emitted in the header line.
pub const TRACE_VERSION: u32 = 1;

/// Serializes one event as a single JSONL line (no trailing newline).
pub fn event_to_line(ev: &TelemetryEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"e\":\"{}\",\"t\":{}", ev.kind().name(), ev.t_ns());
    match *ev {
        TelemetryEvent::Cwnd {
            flow,
            job,
            cwnd,
            ssthresh,
            ..
        } => {
            let _ = write!(s, ",\"flow\":{flow},\"job\":{job},\"cwnd\":");
            push_f64(&mut s, cwnd);
            s.push_str(",\"ssthresh\":");
            push_f64(&mut s, ssthresh);
        }
        TelemetryEvent::Gain {
            flow,
            job,
            gain,
            bytes_ratio,
            ..
        } => {
            let _ = write!(s, ",\"flow\":{flow},\"job\":{job},\"gain\":");
            push_f64(&mut s, gain);
            s.push_str(",\"ratio\":");
            push_f64(&mut s, bytes_ratio);
        }
        TelemetryEvent::Rtt {
            flow, job, rtt_ns, ..
        } => {
            let _ = write!(s, ",\"flow\":{flow},\"job\":{job},\"rtt_ns\":{rtt_ns}");
        }
        TelemetryEvent::EcnMark { link, flow, .. } => {
            let _ = write!(s, ",\"link\":{link},\"flow\":{flow}");
        }
        TelemetryEvent::QueueDepth {
            link,
            bytes,
            packets,
            ..
        } => {
            let _ = write!(s, ",\"link\":{link},\"bytes\":{bytes},\"pkts\":{packets}");
        }
        TelemetryEvent::Drop {
            link, flow, reason, ..
        } => {
            let _ = write!(
                s,
                ",\"link\":{link},\"flow\":{flow},\"reason\":\"{}\"",
                reason.name()
            );
        }
        TelemetryEvent::Retx {
            flow,
            job,
            kind,
            count,
            ..
        } => {
            let _ = write!(
                s,
                ",\"flow\":{flow},\"job\":{job},\"kind\":\"{}\",\"count\":{count}",
                kind.name()
            );
        }
        TelemetryEvent::Phase {
            job, iter, phase, ..
        } => {
            let _ = write!(
                s,
                ",\"job\":{job},\"iter\":{iter},\"phase\":\"{}\"",
                phase.name()
            );
        }
        TelemetryEvent::Fault {
            link, kind, factor, ..
        } => {
            let _ = write!(
                s,
                ",\"link\":{link},\"kind\":\"{}\",\"factor\":",
                kind.name()
            );
            push_f64(&mut s, factor);
        }
    }
    s.push('}');
    s
}

/// A streaming JSONL trace writer.
///
/// Buffered; flushed when detached from the simulator and on drop, so a
/// normally-completed run always leaves a complete file behind.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    events: u64,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes the header line.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        writeln!(out, "{{\"e\":\"hdr\",\"v\":{TRACE_VERSION}}}")?;
        Ok(Self { out, events: 0 })
    }

    /// Number of events written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.events += 1;
        // I/O errors deliberately do not propagate into the simulation
        // (telemetry never perturbs); a torn trace is caught by the
        // reader's validation instead.
        let _ = writeln!(self.out, "{}", event_to_line(ev));
    }

    fn job_name(&mut self, job: u32, name: &str) {
        let mut line = String::with_capacity(48);
        let _ = write!(line, "{{\"e\":\"job\",\"job\":{job},\"name\":");
        push_string(&mut line, name);
        line.push('}');
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// A schema violation (or I/O failure) found while reading a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, msg: impl Into<String>) -> TraceError {
    TraceError {
        line,
        msg: msg.into(),
    }
}

/// One parsed JSON scalar from a flat object.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    /// Numbers keep their raw text so integers round-trip exactly.
    Num(String),
    /// `null` — the writer's encoding of an infinite float (ssthresh
    /// before the first loss event).
    Null,
}

/// Parses the flat-object subset this crate writes:
/// `{"key":"string"|number|null,...}`. Rejects nesting, arrays and
/// booleans — none appear in a valid trace.
fn parse_flat_object(s: &str) -> Result<Vec<(String, Val)>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err("expected string".into());
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = b.get(*i) else {
                return Err("unterminated string".into());
            };
            *i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = b.get(*i) else {
                        return Err("dangling escape".into());
                    };
                    *i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if *i + 4 > b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = &s[*i..*i + 4];
                            *i += 4;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                c => {
                    // Continuation bytes of multi-byte chars pass through
                    // unchanged: re-slice from the original str.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        // Back up and take the full UTF-8 char.
                        *i -= 1;
                        let ch = s[*i..].chars().next().ok_or("bad utf-8")?;
                        out.push(ch);
                        *i += ch.len_utf8();
                    }
                }
            }
        }
    };
    skip_ws(&mut i);
    if b.get(i) != Some(&b'{') {
        return Err("expected '{'".into());
    }
    i += 1;
    let mut fields = Vec::new();
    skip_ws(&mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = if b.get(i) == Some(&b'"') {
            Val::Str(parse_string(&mut i)?)
        } else if s[i..].starts_with("null") {
            i += 4;
            Val::Null
        } else {
            let start = i;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            if start == i {
                return Err(format!("expected value for key {key:?}"));
            }
            Val::Num(s[start..i].to_string())
        };
        fields.push((key, val));
        skip_ws(&mut i);
        match b.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {
                i += 1;
                break;
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    skip_ws(&mut i);
    if i != b.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

struct Obj<'a> {
    fields: Vec<(String, Val)>,
    line: usize,
    tag: &'a str,
}

impl Obj<'_> {
    fn get(&self, key: &str) -> Result<&Val, TraceError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| {
                err(
                    self.line,
                    format!("{} event missing field {key:?}", self.tag),
                )
            })
    }

    fn u64(&self, key: &str) -> Result<u64, TraceError> {
        match self.get(key)? {
            Val::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| err(self.line, format!("field {key:?} is not a u64: {raw:?}"))),
            Val::Str(_) | Val::Null => {
                Err(err(self.line, format!("field {key:?} must be a number")))
            }
        }
    }

    fn u32(&self, key: &str) -> Result<u32, TraceError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| err(self.line, format!("field {key:?} overflows u32")))
    }

    fn f64(&self, key: &str) -> Result<f64, TraceError> {
        match self.get(key)? {
            Val::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| err(self.line, format!("field {key:?} is not a number: {raw:?}"))),
            // The writer encodes an infinite float (pre-loss ssthresh)
            // as null.
            Val::Null => Ok(f64::INFINITY),
            Val::Str(_) => Err(err(self.line, format!("field {key:?} must be a number"))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, TraceError> {
        match self.get(key)? {
            Val::Str(v) => Ok(v),
            Val::Num(_) | Val::Null => {
                Err(err(self.line, format!("field {key:?} must be a string")))
            }
        }
    }
}

/// A fully-loaded, schema-validated trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Job index → display name pairs, in the order recorded.
    pub jobs: Vec<(u32, String)>,
    /// All events, in recording (= simulation) order.
    pub events: Vec<TelemetryEvent>,
}

impl Trace {
    /// Reads and validates a JSONL trace file.
    ///
    /// Validation covers: header line first with a known version, every
    /// line a parseable flat object with a known `"e"` tag, all required
    /// fields present and well-typed, and event timestamps monotonically
    /// non-decreasing (the writer records in simulation order, so any
    /// regression means a torn or corrupted file).
    pub fn read<P: AsRef<Path>>(path: P) -> Result<Self, TraceError> {
        let file = File::open(&path)
            .map_err(|e| err(0, format!("open {}: {e}", path.as_ref().display())))?;
        Self::read_from(BufReader::new(file))
    }

    /// Reads and validates a trace from any buffered reader.
    pub fn read_from<R: BufRead>(reader: R) -> Result<Self, TraceError> {
        let mut trace = Trace::default();
        let mut saw_header = false;
        let mut last_t = 0u64;
        for (idx, line) in reader.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.map_err(|e| err(lineno, format!("read: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            let fields = parse_flat_object(&line).map_err(|m| err(lineno, m))?;
            let tag = match fields.iter().find(|(k, _)| k == "e") {
                Some((_, Val::Str(tag))) => tag.clone(),
                _ => return Err(err(lineno, "missing string tag \"e\"")),
            };
            let obj = Obj {
                fields,
                line: lineno,
                tag: &tag,
            };
            if !saw_header {
                if tag != "hdr" {
                    return Err(err(lineno, "first line must be the \"hdr\" header"));
                }
                let v = obj.u32("v")?;
                if v != TRACE_VERSION {
                    return Err(err(
                        lineno,
                        format!("unsupported trace version {v} (want {TRACE_VERSION})"),
                    ));
                }
                saw_header = true;
                continue;
            }
            match tag.as_str() {
                "hdr" => return Err(err(lineno, "duplicate header")),
                "job" => {
                    let job = obj.u32("job")?;
                    let name = obj.str("name")?.to_string();
                    trace.jobs.push((job, name));
                    continue;
                }
                _ => {}
            }
            let Some(kind) = EventKind::parse(&tag) else {
                return Err(err(lineno, format!("unknown event tag {tag:?}")));
            };
            let t_ns = obj.u64("t")?;
            if t_ns < last_t {
                return Err(err(
                    lineno,
                    format!("timestamp regressed: {t_ns} after {last_t}"),
                ));
            }
            last_t = t_ns;
            let ev = match kind {
                EventKind::Cwnd => TelemetryEvent::Cwnd {
                    t_ns,
                    flow: obj.u64("flow")?,
                    job: obj.u32("job")?,
                    cwnd: obj.f64("cwnd")?,
                    ssthresh: obj.f64("ssthresh")?,
                },
                EventKind::Gain => TelemetryEvent::Gain {
                    t_ns,
                    flow: obj.u64("flow")?,
                    job: obj.u32("job")?,
                    gain: obj.f64("gain")?,
                    bytes_ratio: obj.f64("ratio")?,
                },
                EventKind::Rtt => TelemetryEvent::Rtt {
                    t_ns,
                    flow: obj.u64("flow")?,
                    job: obj.u32("job")?,
                    rtt_ns: obj.u64("rtt_ns")?,
                },
                EventKind::EcnMark => TelemetryEvent::EcnMark {
                    t_ns,
                    link: obj.u32("link")?,
                    flow: obj.u64("flow")?,
                },
                EventKind::QueueDepth => TelemetryEvent::QueueDepth {
                    t_ns,
                    link: obj.u32("link")?,
                    bytes: obj.u64("bytes")?,
                    packets: obj.u32("pkts")?,
                },
                EventKind::Drop => TelemetryEvent::Drop {
                    t_ns,
                    link: obj.u32("link")?,
                    flow: obj.u64("flow")?,
                    reason: DropReason::parse(obj.str("reason")?).ok_or_else(|| {
                        err(
                            lineno,
                            format!("unknown drop reason {:?}", obj.str("reason")),
                        )
                    })?,
                },
                EventKind::Retx => TelemetryEvent::Retx {
                    t_ns,
                    flow: obj.u64("flow")?,
                    job: obj.u32("job")?,
                    kind: RetxKind::parse(obj.str("kind")?).ok_or_else(|| {
                        err(lineno, format!("unknown retx kind {:?}", obj.str("kind")))
                    })?,
                    count: obj.u32("count")?,
                },
                EventKind::Phase => TelemetryEvent::Phase {
                    t_ns,
                    job: obj.u32("job")?,
                    iter: obj.u32("iter")?,
                    phase: PhaseKind::parse(obj.str("phase")?).ok_or_else(|| {
                        err(lineno, format!("unknown phase {:?}", obj.str("phase")))
                    })?,
                },
                EventKind::Fault => TelemetryEvent::Fault {
                    t_ns,
                    link: obj.u32("link")?,
                    kind: FaultKind::parse(obj.str("kind")?).ok_or_else(|| {
                        err(lineno, format!("unknown fault kind {:?}", obj.str("kind")))
                    })?,
                    factor: obj.f64("factor")?,
                },
            };
            trace.events.push(ev);
        }
        if !saw_header {
            return Err(err(0, "empty trace (no header)"));
        }
        Ok(trace)
    }

    /// Display name for a job index, falling back to `job<N>`.
    pub fn job_label(&self, job: u32) -> String {
        self.jobs
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("job{job}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::Phase {
                t_ns: 0,
                job: 0,
                iter: 0,
                phase: PhaseKind::ComputeStart,
            },
            TelemetryEvent::Cwnd {
                t_ns: 10,
                flow: 3,
                job: 0,
                cwnd: 12.5,
                ssthresh: 64.0,
            },
            // Pre-loss ssthresh is infinite; round-trips through `null`.
            TelemetryEvent::Cwnd {
                t_ns: 10,
                flow: 4,
                job: 1,
                cwnd: 10.0,
                ssthresh: f64::INFINITY,
            },
            TelemetryEvent::Gain {
                t_ns: 11,
                flow: 3,
                job: 0,
                gain: 1.375,
                bytes_ratio: 0.5,
            },
            TelemetryEvent::Rtt {
                t_ns: 12,
                flow: 3,
                job: 0,
                rtt_ns: 84_000,
            },
            TelemetryEvent::EcnMark {
                t_ns: 13,
                link: 2,
                flow: 3,
            },
            TelemetryEvent::QueueDepth {
                t_ns: 14,
                link: 2,
                bytes: 9000,
                packets: 6,
            },
            TelemetryEvent::Drop {
                t_ns: 15,
                link: TelemetryEvent::NO_LINK,
                flow: 3,
                reason: DropReason::NoRoute,
            },
            TelemetryEvent::Retx {
                t_ns: 16,
                flow: 3,
                job: 0,
                kind: RetxKind::Rto,
                count: 2,
            },
            TelemetryEvent::Fault {
                t_ns: 17,
                link: 2,
                kind: FaultKind::RateFactor,
                factor: 0.25,
            },
        ]
    }

    fn render(events: &[TelemetryEvent]) -> String {
        let mut s = format!("{{\"e\":\"hdr\",\"v\":{TRACE_VERSION}}}\n");
        s.push_str("{\"e\":\"job\",\"job\":0,\"name\":\"vgg \\\"A\\\"\"}\n");
        for ev in events {
            s.push_str(&event_to_line(ev));
            s.push('\n');
        }
        s
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = sample_events();
        let text = render(&events);
        let trace = Trace::read_from(Cursor::new(text)).expect("valid trace");
        assert_eq!(trace.jobs, vec![(0, "vgg \"A\"".to_string())]);
        assert_eq!(trace.events, events);
        assert_eq!(trace.job_label(0), "vgg \"A\"");
        assert_eq!(trace.job_label(9), "job9");
    }

    #[test]
    fn reader_rejects_missing_header() {
        let text = "{\"e\":\"phase\",\"t\":0,\"job\":0,\"iter\":0,\"phase\":\"end\"}\n";
        let e = Trace::read_from(Cursor::new(text)).unwrap_err();
        assert!(e.msg.contains("header"), "{e}");
    }

    #[test]
    fn reader_rejects_time_regression() {
        let text = format!(
            "{{\"e\":\"hdr\",\"v\":{TRACE_VERSION}}}\n\
             {{\"e\":\"phase\",\"t\":5,\"job\":0,\"iter\":0,\"phase\":\"end\"}}\n\
             {{\"e\":\"phase\",\"t\":4,\"job\":0,\"iter\":1,\"phase\":\"end\"}}\n"
        );
        let e = Trace::read_from(Cursor::new(text)).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("regressed"), "{e}");
    }

    #[test]
    fn reader_rejects_unknown_tag_and_bad_fields() {
        let bad_tag =
            format!("{{\"e\":\"hdr\",\"v\":{TRACE_VERSION}}}\n{{\"e\":\"nope\",\"t\":0}}\n");
        assert!(Trace::read_from(Cursor::new(bad_tag)).is_err());
        let missing =
            format!("{{\"e\":\"hdr\",\"v\":{TRACE_VERSION}}}\n{{\"e\":\"cwnd\",\"t\":0}}\n");
        assert!(Trace::read_from(Cursor::new(missing)).is_err());
        let bad_version = "{\"e\":\"hdr\",\"v\":999}\n";
        assert!(Trace::read_from(Cursor::new(bad_version)).is_err());
    }

    #[test]
    fn jsonl_sink_writes_readable_file() {
        let path = std::env::temp_dir().join(format!(
            "mltcp-telemetry-jsonl-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut sink = JsonlSink::create(&path).expect("create");
            sink.job_name(0, "alpha");
            for ev in sample_events() {
                sink.record(&ev);
            }
            assert_eq!(sink.events_written(), 10);
            sink.flush();
        }
        let trace = Trace::read(&path).expect("valid file");
        assert_eq!(trace.events.len(), 10);
        assert_eq!(trace.jobs, vec![(0, "alpha".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    /// Pins the exact bytes of a trace: header, an escaped job name and
    /// every event kind, including an infinite ssthresh and an integral
    /// float (traces print `64`, not `64.0`).
    #[test]
    fn trace_bytes_match_golden() {
        let path = std::env::temp_dir().join(format!(
            "mltcp-telemetry-golden-{}.jsonl",
            std::process::id()
        ));
        {
            let mut sink = JsonlSink::create(&path).expect("create");
            sink.job_name(0, "vgg \"A\"\\\t\u{1}");
            for ev in sample_events() {
                sink.record(&ev);
            }
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let golden = r#"{"e":"hdr","v":1}
{"e":"job","job":0,"name":"vgg \"A\"\\\t\u0001"}
{"e":"phase","t":0,"job":0,"iter":0,"phase":"compute"}
{"e":"cwnd","t":10,"flow":3,"job":0,"cwnd":12.5,"ssthresh":64}
{"e":"cwnd","t":10,"flow":4,"job":1,"cwnd":10,"ssthresh":null}
{"e":"gain","t":11,"flow":3,"job":0,"gain":1.375,"ratio":0.5}
{"e":"rtt","t":12,"flow":3,"job":0,"rtt_ns":84000}
{"e":"ecn","t":13,"link":2,"flow":3}
{"e":"qdepth","t":14,"link":2,"bytes":9000,"pkts":6}
{"e":"drop","t":15,"link":4294967295,"flow":3,"reason":"no_route"}
{"e":"retx","t":16,"flow":3,"job":0,"kind":"rto","count":2}
{"e":"fault","t":17,"link":2,"kind":"rate_factor","factor":0.25}
"#;
        assert_eq!(text, golden);
    }
}
