//! Trace exporters: JSONL event dumps and chrome://tracing documents.
//!
//! Both exporters return `String`s — writing them to disk (or not) is
//! the caller's business, which keeps this crate inside the sans-I/O
//! boundary. [`validate_jsonl`] is the schema check CI runs against
//! the nemesis trace artifact.

use crate::event::{TraceEvent, TraceKind};
use crate::json::{parse_json, write_json, JsonValue};

/// Export events as JSONL: one compact JSON object per line, stable
/// key order, schema documented in DESIGN.md §11.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&write_json(&event_to_json(ev)));
        out.push('\n');
    }
    out
}

/// Export events as a chrome://tracing document (JSON object format,
/// instant events). Load it at `chrome://tracing` or in Perfetto:
/// ticks become microseconds, cohorts become threads.
pub fn export_chrome(events: &[TraceEvent]) -> String {
    let trace_events: Vec<JsonValue> = events
        .iter()
        .map(|ev| {
            let name = match ev.kind {
                TraceKind::Send { msg, .. } => format!("send {msg}"),
                TraceKind::Recv { msg, .. } => format!("recv {msg}"),
                TraceKind::Timer { timer } => format!("timer {timer}"),
                TraceKind::ForceBegin => "force-begin".to_string(),
                TraceKind::ForceFire { .. } => "force-fire".to_string(),
                TraceKind::ViewState { to, .. } => format!("view-state {to}"),
                TraceKind::DiskAppend { .. } => "disk-append".to_string(),
            };
            JsonValue::Obj(vec![
                ("name".to_string(), JsonValue::Str(name)),
                ("cat".to_string(), JsonValue::Str(ev.kind.name().to_string())),
                ("ph".to_string(), JsonValue::Str("i".to_string())),
                ("ts".to_string(), JsonValue::Num(ev.tick)),
                ("pid".to_string(), JsonValue::Num(0)),
                ("tid".to_string(), JsonValue::Num(ev.cohort.0)),
                ("s".to_string(), JsonValue::Str("t".to_string())),
                ("args".to_string(), event_args(ev)),
            ])
        })
        .collect();
    write_json(&JsonValue::Obj(vec![("traceEvents".to_string(), JsonValue::Arr(trace_events))]))
}

fn event_to_json(ev: &TraceEvent) -> JsonValue {
    let vs = match ev.vs {
        None => JsonValue::Null,
        Some(vs) => JsonValue::Obj(vec![
            ("view".to_string(), JsonValue::Num(vs.id.counter)),
            ("manager".to_string(), JsonValue::Num(vs.id.manager.0)),
            ("ts".to_string(), JsonValue::Num(vs.ts.0)),
        ]),
    };
    let mut fields = vec![
        ("tick".to_string(), JsonValue::Num(ev.tick)),
        ("cohort".to_string(), JsonValue::Num(ev.cohort.0)),
        ("vs".to_string(), vs),
        ("kind".to_string(), JsonValue::Str(ev.kind.name().to_string())),
    ];
    if let JsonValue::Obj(args) = event_args(ev) {
        fields.extend(args);
    }
    JsonValue::Obj(fields)
}

/// Kind-specific payload fields, shared by both exporters.
fn event_args(ev: &TraceEvent) -> JsonValue {
    JsonValue::Obj(match ev.kind {
        TraceKind::Send { to, msg } => vec![
            ("to".to_string(), JsonValue::Num(to.0)),
            ("msg".to_string(), JsonValue::Str(msg.to_string())),
        ],
        TraceKind::Recv { from, msg } => vec![
            ("from".to_string(), JsonValue::Num(from.0)),
            ("msg".to_string(), JsonValue::Str(msg.to_string())),
        ],
        TraceKind::Timer { timer } => {
            vec![("timer".to_string(), JsonValue::Str(timer.to_string()))]
        }
        TraceKind::ForceBegin => vec![],
        TraceKind::ForceFire { fired } => vec![("fired".to_string(), JsonValue::Num(fired))],
        TraceKind::ViewState { from, to } => vec![
            ("from_state".to_string(), JsonValue::Str(from.to_string())),
            ("to_state".to_string(), JsonValue::Str(to.to_string())),
        ],
        TraceKind::DiskAppend { bytes } => vec![("bytes".to_string(), JsonValue::Num(bytes))],
    })
}

/// All kind names the schema accepts, with the payload keys each
/// requires.
const KIND_FIELDS: &[(&str, &[&str])] = &[
    ("send", &["to", "msg"]),
    ("recv", &["from", "msg"]),
    ("timer", &["timer"]),
    ("force-begin", &[]),
    ("force-fire", &["fired"]),
    ("view-state", &["from_state", "to_state"]),
    ("disk-append", &["bytes"]),
];

/// Parse a JSONL export back into JSON values, one per line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JsonValue>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_json(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Validate a JSONL export against the trace schema: every line must
/// be an object with `tick` (u64), `cohort` (u64), `vs` (null or a
/// `{view, manager, ts}` object), `kind` (a known name), and the
/// kind's required payload fields. Returns the number of valid events.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let values = parse_jsonl(text)?;
    for (i, value) in values.iter().enumerate() {
        validate_event(value).map_err(|e| format!("event {}: {e}", i + 1))?;
    }
    Ok(values.len())
}

fn validate_event(value: &JsonValue) -> Result<(), String> {
    if value.get("tick").and_then(JsonValue::as_u64).is_none() {
        return Err("missing numeric 'tick'".to_string());
    }
    if value.get("cohort").and_then(JsonValue::as_u64).is_none() {
        return Err("missing numeric 'cohort'".to_string());
    }
    match value.get("vs") {
        Some(JsonValue::Null) => {}
        Some(vs @ JsonValue::Obj(_)) => {
            for key in ["view", "manager", "ts"] {
                if vs.get(key).and_then(JsonValue::as_u64).is_none() {
                    return Err(format!("vs missing numeric '{key}'"));
                }
            }
        }
        _ => return Err("missing 'vs' (null or object)".to_string()),
    }
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string 'kind'".to_string())?;
    let (_, required) = KIND_FIELDS
        .iter()
        .find(|(name, _)| *name == kind)
        .ok_or_else(|| format!("unknown kind '{kind}'"))?;
    for key in *required {
        if value.get(key).is_none() {
            return Err(format!("kind '{kind}' missing field '{key}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::types::{Mid, Timestamp, ViewId, Viewstamp};

    /// One event of every kind, every other one without a viewstamp.
    fn sample() -> Vec<TraceEvent> {
        let vs = Viewstamp { id: ViewId { counter: 3, manager: Mid(2) }, ts: Timestamp(11) };
        (1..)
            .zip(TraceKind::every())
            .map(|(tick, kind)| TraceEvent {
                tick,
                cohort: Mid(tick % 3),
                vs: (tick % 2 == 1).then_some(vs),
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_roundtrips_through_parse() {
        let events = sample();
        let text = export_jsonl(&events);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed.len(), events.len());
        // Re-serializing the parsed values reproduces the export
        // byte-for-byte (ordered keys, integer-only numbers).
        let rewritten: String =
            parsed.iter().map(|v| format!("{}\n", crate::json::write_json(v))).collect();
        assert_eq!(rewritten, text);
    }

    #[test]
    fn jsonl_passes_schema_check() {
        let text = export_jsonl(&sample());
        assert_eq!(validate_jsonl(&text), Ok(sample().len()));
    }

    #[test]
    fn schema_check_rejects_malformed_events() {
        assert!(validate_jsonl("{\"tick\":1}\n").is_err());
        assert!(
            validate_jsonl("{\"tick\":1,\"cohort\":2,\"vs\":null,\"kind\":\"nope\"}\n").is_err()
        );
        assert!(
            validate_jsonl("{\"tick\":1,\"cohort\":2,\"vs\":null,\"kind\":\"send\",\"to\":3}\n")
                .is_err(),
            "send without msg must fail"
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_trace() {
        let events = sample();
        let doc = export_chrome(&events);
        let value = parse_json(&doc).expect("chrome export parses");
        match value.get("traceEvents") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), events.len()),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
