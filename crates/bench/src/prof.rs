//! Reconstruct a [`swpf_obs::Profile`] from its chrome-trace export.
//!
//! `--profile <path>` writes plain Chrome trace-event JSON — loadable
//! in `chrome://tracing` or Perfetto — and this module parses it back,
//! so `prof_report`'s summary table and the timeline viewer always
//! describe the same capture.
//!
//! The chrome format has no histogram event, so the exporter flattens
//! each non-empty [`swpf_obs::Hist`] into a reserved counter series —
//! `hist:{name}:count`, `:sum`, `:min`, `:max`, `:b{i}` — and this
//! reader reassembles those series into `Profile.histograms`, removing
//! them from the counter catalogue. The round trip is exact: export →
//! parse → export is a fixed point (modulo per-thread drop counts,
//! which the format does not carry).

use crate::json::Json;
use std::collections::BTreeMap;
use swpf_obs::{Hist, Profile, ThreadTrack, TrackEvent};

/// `ts` is microseconds with sub-µs decimals; back to integer ns.
fn ts_ns(ev: &Json) -> u64 {
    let us = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (us * 1000.0).round().max(0.0) as u64
    }
}

/// The (created-on-demand) track of thread `tid`.
fn track(tracks: &mut BTreeMap<u64, ThreadTrack>, tid: u64) -> &mut ThreadTrack {
    let t = tracks.entry(tid).or_default();
    t.tid = tid;
    t
}

/// Split a reserved histogram-series counter key `hist:{name}:{field}`
/// into `(name, field)`. Splits on the *last* colon so histogram names
/// containing colons survive.
fn split_hist_key(key: &str) -> Option<(&str, &str)> {
    let rest = key.strip_prefix("hist:")?;
    let idx = rest.rfind(':')?;
    Some((&rest[..idx], &rest[idx + 1..]))
}

/// Fold one `hist:` series sample into the histogram being reassembled.
/// Returns false for an unrecognised field (the key then stays a plain
/// counter rather than being silently swallowed).
fn apply_hist_field(h: &mut Hist, field: &str, value: u64) -> bool {
    match field {
        "count" => h.count = value,
        "sum" => h.sum = value,
        "min" => h.min = value,
        "max" => h.max = value,
        f => match f.strip_prefix('b').and_then(|s| s.parse::<usize>().ok()) {
            Some(i) if i < h.buckets.len() => h.buckets[i] = value,
            _ => return false,
        },
    }
    true
}

/// Rebuild a [`Profile`] from parsed chrome trace-event JSON.
///
/// Thread tracks, span nesting, counters, and histograms (via the
/// `hist:` counter series) all reconstruct exactly; only the
/// per-thread dropped-span counts are not round-tripped (the chrome
/// format has no field for them).
///
/// # Errors
/// When the document is not a chrome-trace profile, or an event is
/// missing a required member.
pub fn profile_from_chrome(doc: &Json) -> Result<Profile, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no `traceEvents` array — not a chrome-trace profile")?;
    let mut tracks: BTreeMap<u64, ThreadTrack> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut captured_ns = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "M" => {
                if let Some(name) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    track(&mut tracks, tid).name = name.to_string();
                }
            }
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("B event without a name")?
                    .to_string();
                let ns = ts_ns(ev);
                captured_ns = captured_ns.max(ns);
                track(&mut tracks, tid)
                    .events
                    .push(TrackEvent::Begin { name, ns });
            }
            "E" => {
                let ns = ts_ns(ev);
                captured_ns = captured_ns.max(ns);
                track(&mut tracks, tid).events.push(TrackEvent::End { ns });
            }
            "C" => {
                // Counter samples are stamped at the capture instant,
                // so they pin `captured_ns` even when they post-date
                // the last span event.
                captured_ns = captured_ns.max(ts_ns(ev));
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("C event without a name")?;
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_u64)
                    .ok_or("C event without an integer value")?;
                *counters.entry(name.to_string()).or_insert(0) += value;
            }
            other => return Err(format!("unsupported event phase `{other}`")),
        }
    }
    // Reassemble the reserved `hist:` counter series back into
    // histograms; unrecognised fields stay visible as plain counters.
    let mut histograms: BTreeMap<String, Hist> = BTreeMap::new();
    counters.retain(|key, value| match split_hist_key(key) {
        Some((name, field)) => {
            let h = histograms.entry(name.to_string()).or_default();
            !apply_hist_field(h, field, *value)
        }
        None => true,
    });
    // Our exporter always writes balanced tracks, but a truncated or
    // hand-edited file must degrade to a partial table, not a panic:
    // orphan ends are dropped, unclosed begins close at the capture
    // timestamp — the same repair `swpf_obs::snapshot` applies.
    for t in tracks.values_mut() {
        let mut depth = 0usize;
        t.events.retain(|ev| match ev {
            TrackEvent::Begin { .. } => {
                depth += 1;
                true
            }
            TrackEvent::End { .. } => {
                if depth == 0 {
                    false
                } else {
                    depth -= 1;
                    true
                }
            }
        });
        for _ in 0..depth {
            t.events.push(TrackEvent::End { ns: captured_ns });
        }
    }
    Ok(Profile {
        captured_ns,
        threads: tracks.into_values().collect(),
        counters,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut h = Hist::default();
        h.add(0);
        h.add(3);
        h.add(1000);
        let mut histograms = BTreeMap::new();
        histograms.insert("sim.lead:cycles".to_string(), h);
        histograms.insert("never.recorded".to_string(), Hist::default());
        let mut counters = BTreeMap::new();
        counters.insert("sim.retires".to_string(), 42u64);
        Profile {
            captured_ns: 5_000,
            threads: vec![ThreadTrack {
                tid: 3,
                name: "worker-3".to_string(),
                events: vec![
                    TrackEvent::Begin {
                        name: "simulate".to_string(),
                        ns: 1_000,
                    },
                    TrackEvent::Begin {
                        name: "drain".to_string(),
                        ns: 2_000,
                    },
                    TrackEvent::End { ns: 3_000 },
                    TrackEvent::End { ns: 4_000 },
                ],
                dropped: 0,
            }],
            counters,
            histograms,
        }
    }

    #[test]
    fn chrome_round_trip_reconstructs_everything() {
        let p = sample_profile();
        let text = p.to_chrome_json();
        let doc = Json::parse(&text).expect("exporter writes valid JSON");
        let back = profile_from_chrome(&doc).expect("round trip parses");
        assert_eq!(back.captured_ns, p.captured_ns);
        assert_eq!(back.threads, p.threads);
        assert_eq!(back.counters, p.counters);
        // The empty histogram is (deliberately) not exported; the
        // recorded one reconstructs to the last bucket.
        assert_eq!(back.histograms.len(), 1);
        assert_eq!(
            back.histograms.get("sim.lead:cycles"),
            p.histograms.get("sim.lead:cycles"),
        );
    }

    #[test]
    fn round_trip_is_a_fixed_point() {
        let text = sample_profile().to_chrome_json();
        let doc = Json::parse(&text).expect("valid JSON");
        let again = profile_from_chrome(&doc).expect("parses").to_chrome_json();
        assert_eq!(text, again, "export → parse → export must be stable");
    }

    #[test]
    fn hist_series_keys_split_on_the_last_colon() {
        assert_eq!(
            split_hist_key("hist:sim.lead:cycles:b12"),
            Some(("sim.lead:cycles", "b12"))
        );
        assert_eq!(split_hist_key("hist:x:count"), Some(("x", "count")));
        assert_eq!(split_hist_key("plain.counter"), None);
        assert_eq!(split_hist_key("hist:nofield"), None);
    }

    #[test]
    fn unrecognised_hist_fields_stay_counters() {
        let doc = Json::parse(
            r#"{"traceEvents": [
              {"ph": "C", "pid": 1, "tid": 0, "ts": 1.0, "name": "hist:h:count", "args": {"value": 2}},
              {"ph": "C", "pid": 1, "tid": 0, "ts": 1.0, "name": "hist:h:bogus", "args": {"value": 7}}
            ]}"#,
        )
        .expect("valid JSON");
        let p = profile_from_chrome(&doc).expect("parses");
        assert_eq!(p.histograms.get("h").map(|h| h.count), Some(2));
        assert_eq!(p.counters.get("hist:h:bogus"), Some(&7));
    }

    #[test]
    fn truncated_tracks_are_repaired() {
        let doc = Json::parse(
            r#"{"traceEvents": [
              {"ph": "E", "pid": 1, "tid": 0, "ts": 0.5},
              {"ph": "B", "pid": 1, "tid": 0, "ts": 1.0, "name": "open"}
            ]}"#,
        )
        .expect("valid JSON");
        let p = profile_from_chrome(&doc).expect("parses");
        let t = &p.threads[0];
        assert_eq!(t.events.len(), 2, "orphan end dropped, open begin closed");
        assert!(matches!(t.events[1], TrackEvent::End { ns } if ns == p.captured_ns));
    }
}
