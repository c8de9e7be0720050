//! Chrome trace-event JSON export and validation for span trees.
//!
//! [`render`] turns [`SpanRecord`] groups into the Trace Event Format
//! that Perfetto and `about://tracing` load directly: one *process* per
//! group (the live daemon maps a scheduling cycle to a pid), one *thread*
//! per track (shard `s` runs on track `s + 1`, the coordinator on 0),
//! `"X"` complete events for spans and `"i"` instant events for point
//! marks. Span attributes travel in `args`, alongside the span's own
//! `id`/`parent` links so the tree survives the flat encoding.
//!
//! The crate's [`crate::json`] writer is flat-objects-only by design, so
//! this module hand-builds the nested document — and brings its own
//! recursive [`parse`] plus a [`validate`] pass (every parent exists,
//! children nest inside their parents, same-track spans form a proper
//! stack) that the test suites and the CI `chrome-check` step share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{AttrValue, SpanRecord};

/// Renders `(group id, spans)` pairs as a Chrome trace-event JSON
/// document. Group ids become pids (the live daemon passes cycle
/// numbers), tracks become tids.
#[must_use]
pub fn render(groups: &[(u64, &[SpanRecord])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let emit = |event: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&event);
    };

    // Metadata: name each process and thread so the viewer's sidebar
    // reads "cycle 12 / shard 1" instead of bare numbers.
    let mut tracks: BTreeMap<(u64, u32), ()> = BTreeMap::new();
    for (pid, records) in groups {
        for record in *records {
            tracks.entry((*pid, record.track)).or_insert(());
        }
    }
    let mut seen_pid = None;
    for &(pid, tid) in tracks.keys() {
        if seen_pid != Some(pid) {
            seen_pid = Some(pid);
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"cycle {pid}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        let label = if tid == 0 {
            "main".to_owned()
        } else {
            format!("track {tid}")
        };
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    for (pid, records) in groups {
        for record in *records {
            let mut args = String::new();
            let _ = write!(
                args,
                "\"id\":{},\"parent\":{}",
                record.id.0, record.parent.0
            );
            for (name, value) in &record.attrs {
                args.push(',');
                args.push_str(&escape(name));
                args.push(':');
                match value {
                    AttrValue::U64(v) => {
                        let _ = write!(args, "{v}");
                    }
                    AttrValue::Str(v) => args.push_str(&escape(v)),
                }
            }
            let event = if record.instant {
                format!(
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{},\
                     \"s\":\"t\",\"args\":{{{args}}}}}",
                    escape(&record.name),
                    record.start_us,
                    record.track,
                )
            } else {
                format!(
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\
                     \"tid\":{},\"args\":{{{args}}}}}",
                    escape(&record.name),
                    record.start_us,
                    record.duration_us(),
                    record.track,
                )
            };
            emit(event, &mut out, &mut first);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value — the minimal recursive model [`parse`] produces.
/// (The crate's [`crate::json`] parser is deliberately flat-only; Chrome
/// traces are nested, so the validator brings its own.)
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks a field up in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (full nesting, unlike [`crate::json`]).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("malformed \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash in
                // one step. The input came in as &str and both stop bytes
                // are ASCII, so the run ends on a char boundary.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8".to_owned())?;
                out.push_str(run);
            }
        }
    }
}

/// What [`validate`] verified about a trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events including metadata.
    pub events: usize,
    /// `"X"` complete (duration) events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// Distinct pids (cycles).
    pub processes: usize,
    /// Distinct (pid, tid) tracks.
    pub tracks: usize,
}

/// Parses and structurally validates a Chrome trace-event document:
///
/// 1. the document is an object with a `traceEvents` array, every event
///    carrying `name`/`ph`/`pid`/`tid` (plus `ts` and, for `"X"`, `dur`);
/// 2. every span's `args.parent` (when non-zero) names an `args.id` that
///    exists within the same pid;
/// 3. every child's interval lies within its parent's;
/// 4. spans sharing a (pid, tid) track are properly nested — they form a
///    stack, never partially overlapping (shard tracks are disjoint lanes).
///
/// # Errors
///
/// Returns the first violation, described.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let document = parse(text)?;
    let events = document
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("document has no traceEvents array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // (pid, id) -> (ts, end); parent links never cross pids.
    let mut spans: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
    let mut parents: Vec<(u64, u64, f64, f64)> = Vec::new(); // (pid, parent, ts, end)
    let mut by_track: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut pids: BTreeMap<u64, ()> = BTreeMap::new();

    for (index, event) in events.iter().enumerate() {
        let field_num = |key: &str| -> Result<f64, String> {
            event
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {index}: missing numeric {key:?}"))
        };
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing ph"))?;
        event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing name"))?;
        let pid = field_num("pid")? as u64;
        let tid = field_num("tid")? as u64;
        pids.entry(pid).or_insert(());
        match ph {
            "M" => {}
            "i" => {
                summary.instants += 1;
                field_num("ts")?;
            }
            "X" => {
                summary.spans += 1;
                let ts = field_num("ts")?;
                let dur = field_num("dur")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {index}: negative ts/dur"));
                }
                let args = event
                    .get("args")
                    .ok_or_else(|| format!("event {index}: span has no args"))?;
                let id = args
                    .get("id")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {index}: span has no args.id"))?
                    as u64;
                let parent = args.get("parent").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                if spans.insert((pid, id), (ts, ts + dur)).is_some() {
                    return Err(format!(
                        "event {index}: duplicate span id {id} in pid {pid}"
                    ));
                }
                if parent != 0 {
                    parents.push((pid, parent, ts, ts + dur));
                }
                by_track.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            other => return Err(format!("event {index}: unknown ph {other:?}")),
        }
    }
    summary.processes = pids.len();
    summary.tracks = by_track.len();

    // 2 + 3: parents exist (within the pid) and contain their children.
    for (pid, parent, ts, end) in parents {
        let Some(&(parent_ts, parent_end)) = spans.get(&(pid, parent)) else {
            return Err(format!("span parent {parent} missing in pid {pid}"));
        };
        if ts < parent_ts || end > parent_end {
            return Err(format!(
                "child [{ts}, {end}] escapes parent {parent} [{parent_ts}, {parent_end}] \
                 in pid {pid}"
            ));
        }
    }

    // 4: per-track laminarity — sort by (start, -length); each span must
    // nest inside or fall after every open ancestor.
    for ((pid, tid), mut intervals) in by_track {
        intervals.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then((b.1 - b.0).total_cmp(&(a.1 - a.0)))
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (ts, end) in intervals {
            while let Some(&(_, open_end)) = stack.last() {
                if ts >= open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "track ({pid}, {tid}): span [{ts}, {end}] partially overlaps \
                         an open span ending at {open_end}"
                    ));
                }
            }
            stack.push((ts, end));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{MemorySpanSink, SpanSink};

    fn sample_records() -> Vec<SpanRecord> {
        let mut sink = MemorySpanSink::new();
        let root = sink.open("serve.cycle");
        sink.attr_u64("cycle", 3);
        let schedule = sink.open("batch.schedule");
        sink.attr_str("policy", "AMP");
        sink.instant("mckp.solved");
        sink.close(schedule);
        let commit = sink.open("serve.commit");
        sink.close(commit);
        sink.close(root);
        sink.take_records()
    }

    #[test]
    fn render_produces_valid_nested_chrome_json() {
        let records = sample_records();
        let text = render(&[(3, &records)]);
        let summary = validate(&text).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.processes, 1);
        // Attributes and links survive the round trip.
        let document = parse(&text).unwrap();
        let events = document.get("traceEvents").unwrap().as_array().unwrap();
        let schedule = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("batch.schedule"))
            .expect("schedule span present");
        assert_eq!(
            schedule
                .get("args")
                .unwrap()
                .get("policy")
                .unwrap()
                .as_str(),
            Some("AMP")
        );
        assert_eq!(
            schedule
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn strings_round_trip_multibyte_utf8_and_escapes() {
        let note = "caf\u{e9} \u{6f22} \u{1f680} \"quoted\" back\\slash/\nline\ttab\u{1}";
        let mut sink = MemorySpanSink::new();
        let id = sink.open("serve.cycle");
        sink.attr_str("note", note);
        sink.close(id);
        let text = render(&[(0, &sink.take_records())]);
        let document = parse(&text).unwrap();
        let events = document.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("serve.cycle"))
            .expect("span present");
        let args = span.get("args").unwrap();
        assert_eq!(args.get("note").unwrap().as_str(), Some(note));

        // Hand-written escapes, including \u and multi-byte runs on both
        // sides of them, decode to the same text.
        let value = parse(r#"["\u00e9\u6f22 \ud83d x", "é漢🚀\"\\\/\b\f\n\r\t"]"#).unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items[1].as_str(), Some("é漢🚀\"\\/\u{8}\u{c}\n\r\t"));
        assert_eq!(items[0].as_str(), Some("é漢 \u{fffd} x"));
        assert!(parse(r#"["unterminated é"#).is_err());
    }

    #[test]
    fn render_separates_groups_into_processes_and_tracks() {
        let records_a = sample_records();
        let mut sink = MemorySpanSink::new();
        sink.set_track(2);
        let id = sink.open("serve.shard");
        sink.close(id);
        let records_b = sink.take_records();
        let text = render(&[(1, &records_a), (2, &records_b)]);
        let summary = validate(&text).expect("valid trace");
        assert_eq!(summary.processes, 2);
        assert!(text.contains("\"cycle 1\""));
        assert!(text.contains("\"cycle 2\""));
        assert!(text.contains("\"track 2\""));
    }

    #[test]
    fn names_and_attrs_are_escaped() {
        let mut sink = MemorySpanSink::new();
        let id = sink.open("weird");
        sink.attr_str("note", "a \"quoted\"\nline\\");
        sink.close(id);
        let records = sink.take_records();
        let text = render(&[(0, &records)]);
        let summary = validate(&text).expect("escaped trace still parses");
        assert_eq!(summary.spans, 1);
        let document = parse(&text).unwrap();
        let events = document.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("args").unwrap().get("note").unwrap().as_str(),
            Some("a \"quoted\"\nline\\")
        );
    }

    #[test]
    fn validate_rejects_a_missing_parent() {
        let text = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\
                    \"pid\":0,\"tid\":0,\"args\":{\"id\":2,\"parent\":1}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("parent 1 missing"), "{error}");
    }

    #[test]
    fn validate_rejects_a_child_escaping_its_parent() {
        let text = "{\"traceEvents\":[\
            {\"name\":\"p\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":0,\"tid\":0,\
             \"args\":{\"id\":1,\"parent\":0}},\
            {\"name\":\"c\",\"ph\":\"X\",\"ts\":3,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":2,\"parent\":1}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("escapes parent"), "{error}");
    }

    #[test]
    fn validate_rejects_partial_overlap_on_one_track() {
        let text = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":1,\"parent\":0}},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":3,\"dur\":5,\"pid\":0,\"tid\":1,\
             \"args\":{\"id\":2,\"parent\":0}}]}";
        let error = validate(text).unwrap_err();
        assert!(error.contains("partially overlaps"), "{error}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"noTraceEvents\":[]}").is_err());
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }

    #[test]
    fn parser_handles_nesting_numbers_and_literals() {
        let value =
            parse("{\"a\":[1, -2.5, 1e3, true, false, null, \"s\"], \"b\":{\"c\":{}}}").unwrap();
        let items = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 7);
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert_eq!(items[3], Value::Bool(true));
        assert_eq!(items[5], Value::Null);
        assert_eq!(items[6].as_str(), Some("s"));
        assert!(value.get("b").unwrap().get("c").is_some());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }
}
