//! Fuzzes the JSON decoders, `Snapshot::from_json` and
//! `flight::parse_chrome`: every input must decode to `Ok` or an `Err`,
//! never panic, and every accepted snapshot must render. Two pinned
//! cases cover the histogram shapes the decoder must refuse, or render
//! without overflow.
//!
//! Inputs are valid encodings with random edits — flips of the low seven
//! bits of ASCII bytes and truncations on character boundaries, so every
//! input stays a `&str` — plus structurally valid snapshots whose
//! histograms carry 0–80 buckets of values up to `u64::MAX`. Only the
//! structured inputs reach bucket arrays the renderers cannot take.

use proptest::prelude::*;
use rime_core::flight::{parse_chrome, PhaseTag};
use rime_core::metrics::{MetricValue, Snapshot, HISTOGRAM_BUCKETS};
use rime_core::{FlightConfig, FlightRecorder, MetricsRegistry};

/// A valid snapshot document: every metric kind, labels and help text
/// that need escaping, and a multi-byte character.
fn snapshot_doc() -> String {
    let reg = MetricsRegistry::new();
    reg.counter("ops_total", &[("kind", "ex\"tract\n")], "ops, \"quoted\" ü")
        .add(7);
    reg.gauge("depth", &[], "a gauge").set(-3);
    let h = reg.histogram("wait_ns", &[("phase", "sq\\wait")], "waits");
    for v in [0, 1, 3, 900, 1 << 40] {
        h.observe(v);
    }
    reg.histogram_with("wall_ns", &[], "wall time", true)
        .observe(12);
    reg.snapshot().to_json(true)
}

/// A valid Chrome export: spans, a fused umbrella span and its link.
fn chrome_doc() -> String {
    let r = FlightRecorder::new(FlightConfig { capacity: 32 });
    let root = r.root();
    let fused = r.root();
    r.record_span(r.child(root), PhaseTag::SqWait, 1_500, 2_500, 3, 9);
    r.record_span(r.child(root), PhaseTag::Dispatch, 4_000, 7_000, 3, 9);
    r.record_span(r.child(fused), PhaseTag::Device, 4_100, 6_000, 0, 0);
    r.record_fused(fused, 4_000, 10_000, [(root.span, 3, 9)]);
    r.snapshot().to_chrome_json()
}

/// One edit of a valid document; positions are taken modulo its length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// XOR an ASCII byte with a mask of its low seven bits.
    Flip(usize, u8),
    /// Cut the document at the character boundary at or before the
    /// position.
    Cut(usize),
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let flip = || (any::<usize>(), 1u8..128).prop_map(|(at, mask)| Edit::Flip(at, mask));
    // Three flips to one cut, so most edited documents keep their tail.
    let edit = prop_oneof![flip(), flip(), flip(), any::<usize>().prop_map(Edit::Cut)];
    prop::collection::vec(edit, 1..4)
}

fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &edit in edits {
        if bytes.is_empty() {
            break;
        }
        match edit {
            Edit::Flip(at, mask) => {
                let at = at % bytes.len();
                if bytes[at].is_ascii() {
                    bytes[at] ^= mask;
                }
            }
            Edit::Cut(at) => {
                let mut at = at % bytes.len();
                while bytes[at] & 0xC0 == 0x80 {
                    at -= 1; // a UTF-8 continuation byte
                }
                bytes.truncate(at);
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII flips and boundary cuts keep UTF-8")
}

/// A snapshot document holding one histogram.
fn histogram_doc(buckets: &[u64], sum: u64, count: u64) -> String {
    let list = buckets
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        r#"{{"metrics":[{{"name":"h_ns","labels":{{}},"type":"histogram","help":"h","nondeterministic":false,"value":{{"buckets":[{list}],"sum":{sum},"count":{count}}}}}]}}"#
    )
}

/// Renders everything an accepted snapshot offers; a panic fails the case.
fn render(snap: &Snapshot) -> TestCaseResult {
    snap.to_prometheus();
    let again = Snapshot::from_json(&snap.to_json(false));
    prop_assert_eq!(again.as_ref(), Ok(snap));
    for m in &snap.metrics {
        if let MetricValue::Histogram(h) = &m.value {
            for p in [0.0, 50.0, 99.0, 100.0] {
                h.percentile(p);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_snapshots_decode_or_err(edits in edits()) {
        if let Ok(snap) = Snapshot::from_json(&mutate(&snapshot_doc(), &edits)) {
            render(&snap)?;
        }
    }

    #[test]
    fn mutated_chrome_exports_decode_or_err(edits in edits()) {
        let _ = parse_chrome(&mutate(&chrome_doc(), &edits));
    }

    /// Half the cases carry exactly [`HISTOGRAM_BUCKETS`] buckets, which
    /// must decode and render whatever their values.
    #[test]
    fn structured_histograms_decode_only_when_renderable(
        mut buckets in prop::collection::vec(any::<u64>(), 80),
        len in prop_oneof![Just(HISTOGRAM_BUCKETS), 0usize..81],
        sum in any::<u64>(),
        count in any::<u64>(),
    ) {
        buckets.truncate(len);
        match Snapshot::from_json(&histogram_doc(&buckets, sum, count)) {
            Ok(snap) => {
                prop_assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
                render(&snap)?;
            }
            Err(_) => prop_assert!(buckets.len() != HISTOGRAM_BUCKETS, "valid document refused"),
        }
    }
}

#[test]
fn bucket_arrays_of_other_lengths_are_refused() {
    assert!(Snapshot::from_json(&histogram_doc(&[0; HISTOGRAM_BUCKETS], 0, 0)).is_ok());
    for n in [0, 63, 65, 70] {
        let doc = histogram_doc(&vec![0; n], 0, 0);
        assert!(Snapshot::from_json(&doc).is_err(), "{n} buckets");
    }
}

#[test]
fn bucket_sums_past_u64_max_saturate() {
    let mut buckets = [0; HISTOGRAM_BUCKETS];
    buckets[3] = 1;
    buckets[5] = u64::MAX;
    let snap = Snapshot::from_json(&histogram_doc(&buckets, 0, u64::MAX)).expect("decodes");
    let text = snap.to_prometheus();
    let max = u64::MAX;
    assert!(
        text.contains(&format!("h_ns_bucket{{le=\"32\"}} {max}\n")),
        "{text}"
    );
    assert!(
        text.contains(&format!("h_ns_bucket{{le=\"+Inf\"}} {max}\n")),
        "{text}"
    );
    let MetricValue::Histogram(h) = &snap.metrics[0].value else {
        panic!("{:?}", snap.metrics[0].value)
    };
    assert_eq!(h.percentile(100.0), Some(32.0));
}
