//! The `/verdict` and `/deltas` renderers that the one-buffer writer
//! replaced, kept as the reference the body test compares against: one
//! `format!` a record and an event, joined, then copied into the body.
//! Bodies are the replaced ones, re-pointed at the crate's public types;
//! they return the status and body instead of a response.

use urhunter::UrKey;
use urhunterd::events::category_str;
use urhunterd::{EpochRecord, LiveState, UrEvent};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn error(status: u16, message: &str) -> (u16, String) {
    (
        status,
        format!("{{\"error\":\"{}\"}}\n", json_escape(message)),
    )
}

fn normalize_domain(raw: &str) -> Option<String> {
    let lowered = raw.trim().to_ascii_lowercase();
    let trimmed = lowered.strip_suffix('.').unwrap_or(&lowered);
    if trimmed.is_empty() {
        return None;
    }
    let name: dnswire::Name = trimmed.parse().ok()?;
    Some(name.to_string())
}

/// `GET /verdict/<raw_domain>`.
pub fn verdict(state: &LiveState, raw_domain: &str) -> (u16, String) {
    let Some(domain) = normalize_domain(raw_domain) else {
        return error(400, &format!("not a valid domain name: {raw_domain}"));
    };
    let Some(keys) = state.store.domain_keys(&domain) else {
        return error(404, &format!("no UR ever observed for {domain}"));
    };
    let mut keys: Vec<UrKey> = keys.to_vec();
    keys.sort_by_key(|k| (k.ns_ip, k.rtype.code()));
    let mut records = Vec::with_capacity(keys.len());
    for key in &keys {
        let s = state.store.get(key).expect("indexed key has state");
        records.push(format!(
            "{{\"ns\":\"{}\",\"rtype\":\"{}\",\"category\":\"{}\",\"present\":{},\
             \"first_seen\":{},\"last_event\":{},\"changes\":{}}}",
            key.ns_ip,
            key.rtype,
            category_str(s.category),
            s.present,
            s.first_seen,
            s.last_event,
            s.changes
        ));
    }
    (
        200,
        format!(
            "{{\"domain\":\"{}\",\"epoch\":{},\"records\":[{}]}}\n",
            json_escape(&domain),
            state.epochs_done,
            records.join(",")
        ),
    )
}

fn render_event(event: &UrEvent) -> String {
    let (kind, key, extra) = match event {
        UrEvent::Observed { key, verdict } => (
            "observed",
            key,
            format!(",\"category\":\"{}\"", category_str(*verdict)),
        ),
        UrEvent::VerdictChanged { key, from, to } => (
            "verdict_changed",
            key,
            format!(
                ",\"from\":\"{}\",\"to\":\"{}\"",
                category_str(*from),
                category_str(*to)
            ),
        ),
        UrEvent::Gone { key, last } => (
            "gone",
            key,
            format!(",\"last\":\"{}\"", category_str(*last)),
        ),
    };
    format!(
        "{{\"kind\":\"{kind}\",\"ns\":\"{}\",\"domain\":\"{}\",\"rtype\":\"{}\"{extra}}}",
        key.ns_ip,
        json_escape(&key.domain.to_string()),
        key.rtype
    )
}

fn count(record: &EpochRecord, kind: fn(&UrEvent) -> bool) -> usize {
    record.events.iter().filter(|e| kind(e)).count()
}

fn render_epoch_record(record: &EpochRecord, with_events: bool) -> String {
    let events = if with_events {
        let items: Vec<String> = record.events.iter().map(render_event).collect();
        format!(",\"events\":[{}]", items.join(","))
    } else {
        String::new()
    };
    format!(
        "{{\"epoch\":{},\"sim_day\":{},\"observed\":{},\"verdict_changed\":{},\"gone\":{},\
         \"seal\":{{\"classified_hash\":\"{:#018x}\",\"verdict_hash\":\"{:#018x}\",\
         \"sim_hash\":\"{:#018x}\",\"total_urs\":{},\"present\":{}}}{events}}}",
        record.epoch,
        record.sim_day,
        count(record, |e| matches!(e, UrEvent::Observed { .. })),
        count(record, |e| matches!(e, UrEvent::VerdictChanged { .. })),
        count(record, |e| matches!(e, UrEvent::Gone { .. })),
        record.seal.classified_hash,
        record.seal.verdict_hash,
        record.seal.sim_hash,
        record.seal.total_urs,
        record.seal.present,
    )
}

/// `GET /deltas?since=<since>`, with `&events=0` when `with_events` is
/// false.
pub fn deltas(state: &LiveState, since: u64, with_events: bool) -> String {
    let (records, compacted) = state.log.records_since(since);
    let epochs: Vec<String> = records
        .iter()
        .map(|r| render_epoch_record(r, with_events))
        .collect();
    format!(
        "{{\"since\":{since},\"epochs_done\":{},\"compacted_before\":{compacted},\"epochs\":[{}]}}\n",
        state.epochs_done,
        epochs.join(",")
    )
}
