//! JSON-lines run manifest: the machine-readable record of a repro
//! invocation.
//!
//! Line 1 is a `meta` record (tool, schema version, record counts); every
//! following line is one span or event from the [`Recorder`]. Records are
//! sorted into a deterministic order (category rank, then name) and
//! renumbered before rendering, so two sweeps over the same experiments
//! produce identical manifests apart from the timing fields — which are
//! grouped under a single `"t"` member that [`masked_lines`] strips for
//! comparisons.

use crate::json::{self, Json};
use crate::span::{AttrValue, Recorder, SpanRecord};
use std::collections::HashMap;

/// Manifest schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "camp-obs/1";

/// Fixed ordering rank for the span taxonomy; unknown categories sort
/// last (alphabetically by name within a rank). The first block is the
/// repro-sweep taxonomy; `serve` is the serving layer's root (`camp-serve`
/// manifests hold one `serve` root, its `calibration` spans and `anomaly`
/// events — per-request telemetry lives in the meta record's histograms).
fn category_rank(category: &str) -> u32 {
    match category {
        "sweep" | "serve" => 0,
        "experiment" => 1,
        "calibration" => 2,
        "run" => 3,
        "anomaly" => 4,
        _ => 5,
    }
}

fn attrs_to_json(attrs: &[(&'static str, AttrValue)]) -> Json {
    Json::Obj(attrs.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
}

/// Renders a complete manifest. `meta` lands in the meta record directly;
/// `timing_meta` (wall-clock, job count — anything run-to-run variant)
/// lands under the meta record's `"t"` member so it is masked together
/// with per-span timings.
pub fn render(
    tool: &str,
    meta: Vec<(&'static str, Json)>,
    timing_meta: Vec<(&'static str, Json)>,
    recorder: &Recorder,
) -> String {
    let records = sorted_records(recorder);
    let spans = records.iter().filter(|r| !r.is_event).count();
    let events = records.len() - spans;

    let mut meta_members = vec![
        ("kind".to_string(), Json::from("meta")),
        ("schema".to_string(), Json::from(SCHEMA)),
        ("tool".to_string(), Json::from(tool)),
    ];
    meta_members.extend(meta.into_iter().map(|(k, v)| (k.to_string(), v)));
    meta_members.push(("spans".to_string(), Json::from(spans as u64)));
    meta_members.push(("events".to_string(), Json::from(events as u64)));
    meta_members.push(("t".to_string(), Json::obj(timing_meta)));

    let mut out = Json::Obj(meta_members).render();
    out.push('\n');

    // Renumber ids in sorted order and remap parents, so identical sweeps
    // yield identical id graphs regardless of scheduling.
    let remap: HashMap<u64, u64> =
        records.iter().enumerate().map(|(i, r)| (r.id, i as u64 + 1)).collect();
    for record in &records {
        let parent = record
            .parent
            .and_then(|p| remap.get(&p))
            .map(|p| Json::from(*p))
            .unwrap_or(Json::Null);
        let line = Json::obj(vec![
            ("kind", Json::from(if record.is_event { "event" } else { "span" })),
            ("id", Json::from(remap[&record.id])),
            ("parent", parent),
            ("cat", Json::from(record.category)),
            ("name", Json::from(record.name.as_str())),
            ("attrs", attrs_to_json(&record.attrs)),
            (
                "t",
                Json::obj(vec![
                    ("start_us", Json::from(record.start_us)),
                    ("dur_us", Json::from(record.dur_us)),
                    ("thread", Json::from(record.thread)),
                ]),
            ),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

/// Records in manifest order: category rank, then name, then creation id
/// as a tiebreak for duplicate names.
fn sorted_records(recorder: &Recorder) -> Vec<SpanRecord> {
    let mut records = recorder.records();
    records.sort_by(|a, b| {
        category_rank(a.category)
            .cmp(&category_rank(b.category))
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.id.cmp(&b.id))
    });
    records
}

/// What [`validate`] learned about a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Number of span records.
    pub spans: usize,
    /// Number of event records.
    pub events: usize,
    /// Number of records in the `anomaly` category.
    pub anomalies: usize,
}

/// Validates a manifest: every line parses as a JSON object, line 1 is a
/// `meta` record with the expected schema and accurate counts, ids are
/// unique, and every parent reference points at an earlier-declared or
/// later-declared *span* record (nesting is well-formed).
pub fn validate(text: &str) -> Result<Summary, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("manifest is empty")?;
    let meta = json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if meta.get("kind").and_then(Json::as_str) != Some("meta") {
        return Err("line 1 is not a meta record".to_string());
    }
    match meta.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("unsupported schema {other:?} (want {SCHEMA:?})")),
    }

    let mut span_ids = HashMap::new();
    let mut parents = Vec::new();
    let mut summary = Summary { spans: 0, events: 0, anomalies: 0 };
    for (index, line) in lines {
        let lineno = index + 1;
        let record = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let kind = record.get("kind").and_then(Json::as_str);
        let is_event = match kind {
            Some("span") => false,
            Some("event") => true,
            other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
        };
        let id = record
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integral id"))?;
        for key in ["cat", "name"] {
            if record.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("line {lineno}: missing string {key:?}"));
            }
        }
        for key in ["start_us", "dur_us", "thread"] {
            if record.get("t").and_then(|t| t.get(key)).and_then(Json::as_u64).is_none() {
                return Err(format!("line {lineno}: missing timing field t.{key}"));
            }
        }
        if !is_event && span_ids.insert(id, lineno).is_some() {
            return Err(format!("line {lineno}: duplicate span id {id}"));
        }
        match record.get("parent") {
            None => return Err(format!("line {lineno}: missing parent member")),
            Some(Json::Null) => {}
            Some(p) => {
                let parent = p
                    .as_u64()
                    .ok_or_else(|| format!("line {lineno}: parent is not an integral id"))?;
                parents.push((lineno, parent));
            }
        }
        if is_event {
            summary.events += 1;
        } else {
            summary.spans += 1;
        }
        if record.get("cat").and_then(Json::as_str) == Some("anomaly") {
            summary.anomalies += 1;
        }
    }

    for (lineno, parent) in parents {
        if !span_ids.contains_key(&parent) {
            return Err(format!("line {lineno}: parent {parent} is not a span in this manifest"));
        }
    }
    for (key, expect) in [("spans", summary.spans), ("events", summary.events)] {
        if let Some(declared) = meta.get(key).and_then(Json::as_u64) {
            if declared != expect as u64 {
                return Err(format!("meta declares {key}={declared} but manifest has {expect}"));
            }
        }
    }
    Ok(summary)
}

/// Parses a manifest and re-renders every line with the `"t"` (timing)
/// member removed — the comparison form for `--jobs 1` vs `--jobs N`
/// equivalence tests.
pub fn masked_lines(text: &str) -> Result<Vec<String>, String> {
    text.lines()
        .enumerate()
        .map(|(index, line)| {
            let mut record = json::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
            record.remove("t");
            Ok(record.render())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with_sweep() -> Recorder {
        let recorder = Recorder::new();
        {
            let mut sweep = recorder.scope("sweep", "repro");
            sweep.attr("experiments", 2u64);
            {
                let _e = recorder.scope("experiment", "table1");
            }
            {
                let _e = recorder.scope("experiment", "fig2");
            }
        }
        {
            let _run = recorder.scope_rooted("run", "spr2s/dram/stream");
            recorder.event("anomaly", "degenerate-duration", vec![("seconds", 0.0.into())]);
        }
        recorder
    }

    #[test]
    fn renders_a_valid_manifest() {
        let recorder = recorder_with_sweep();
        let text = render(
            "repro",
            vec![("argv", "table1 fig2".into())],
            vec![("jobs", 4u64.into()), ("wall_us", 123u64.into())],
            &recorder,
        );
        let summary = validate(&text).expect("manifest validates");
        assert_eq!(summary, Summary { spans: 4, events: 1, anomalies: 1 });
    }

    #[test]
    fn record_order_is_deterministic_and_ids_renumbered() {
        let text = render("repro", vec![], vec![], &recorder_with_sweep());
        let lines: Vec<&str> = text.lines().collect();
        let names: Vec<String> = lines[1..]
            .iter()
            .map(|l| {
                json::parse(l).unwrap().get("name").and_then(Json::as_str).unwrap().to_string()
            })
            .collect();
        // sweep < experiment (by name) < run < anomaly, regardless of
        // completion order.
        assert_eq!(
            names,
            [
                "repro",
                "fig2",
                "table1",
                "spr2s/dram/stream",
                "degenerate-duration"
            ]
        );
        let ids: Vec<u64> = lines[1..]
            .iter()
            .map(|l| json::parse(l).unwrap().get("id").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(ids, [1, 2, 3, 4, 5]);
        // Experiments are parented under the renumbered sweep id.
        let fig2 = json::parse(lines[2]).unwrap();
        assert_eq!(fig2.get("parent").and_then(Json::as_u64), Some(1));
        // The anomaly event is parented under the renumbered run span.
        let anomaly = json::parse(lines[5]).unwrap();
        assert_eq!(anomaly.get("parent").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn masked_lines_hide_only_timing() {
        let recorder = recorder_with_sweep();
        let text = render("repro", vec![], vec![("wall_us", 5u64.into())], &recorder);
        let masked = masked_lines(&text).expect("masks");
        assert_eq!(masked.len(), text.lines().count());
        for line in &masked {
            assert!(!line.contains("\"t\":"), "timing member must be stripped: {line}");
        }
        assert!(masked[1].contains("\"name\":\"repro\""));
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        let good = render("repro", vec![], vec![], &recorder_with_sweep());
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();

        // Dangling parent reference.
        let mut broken = lines.clone();
        broken[2] = broken[2].replace("\"parent\":1", "\"parent\":99");
        assert!(validate(&broken.join("\n")).unwrap_err().contains("parent 99"));

        // Wrong meta counts.
        let mut broken = lines.clone();
        broken[0] = broken[0].replace("\"spans\":4", "\"spans\":7");
        assert!(validate(&broken.join("\n")).unwrap_err().contains("spans=7"));

        // Not JSON at all.
        lines[3] = "not json".to_string();
        assert!(validate(&lines.join("\n")).is_err());

        // Missing meta line.
        assert!(validate("").is_err());
        assert!(validate("{\"kind\":\"span\"}").unwrap_err().contains("meta"));
    }
}
