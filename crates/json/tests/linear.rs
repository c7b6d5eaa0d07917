//! The parser runs in time linear in its input, whatever the document's
//! shape. Each case is about 1 MiB of text or 100 000 keys; a quadratic
//! string or duplicate-key scan takes minutes on these, a linear one a
//! fraction of a second even in a debug build, so the bound below sits
//! over a hundred times above the expected time and cannot flake.

use sharing_json::Json;
use std::time::{Duration, Instant};

const BOUND: Duration = Duration::from_secs(5);

/// Parses `text`, asserting the parse finished within [`BOUND`].
fn parse_within_bound(what: &str, text: &str) -> Result<Json, sharing_json::JsonError> {
    let t0 = Instant::now();
    let parsed = Json::parse(text);
    let took = t0.elapsed();
    assert!(took < BOUND, "{what}: {} bytes took {took:?}", text.len());
    parsed
}

#[test]
fn a_one_mib_plain_string_parses_in_linear_time() {
    let s = "a".repeat(1 << 20);
    let v = parse_within_bound("plain string", &format!("{{\"s\":\"{s}\"}}")).unwrap();
    assert_eq!(v.get("s").and_then(Json::as_str), Some(s.as_str()));
}

#[test]
fn a_one_mib_string_of_escapes_and_multibyte_scalars_parses_in_linear_time() {
    // Each unit: ASCII, a named escape, 2-, 3- and 4-byte scalars both raw
    // and as \u escapes (the last as a surrogate pair), and a control
    // character escape.
    let unit_src = r#"ab\n\"é€😀\u00e9\u20ac\ud83d\ude00\u0001\\/"#;
    let unit_val = "ab\n\"é€😀é€😀\u{1}\\/";
    let reps = (1 << 20) / unit_src.len();
    let text = format!("[\"{}\"]", unit_src.repeat(reps));
    let v = parse_within_bound("mixed string", &text).unwrap();
    assert_eq!(v, Json::Arr(vec![Json::Str(unit_val.repeat(reps))]));
}

#[test]
fn an_object_with_100k_keys_parses_in_linear_time() {
    const KEYS: usize = 100_000;
    let mut text = String::from("{");
    for i in 0..KEYS {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("\"key{i}\":{i}"));
    }
    text.push('}');
    let v = parse_within_bound("wide object", &text).unwrap();
    let pairs = v.as_obj().expect("object");
    assert_eq!(pairs.len(), KEYS);
    assert_eq!(
        pairs[KEYS - 1],
        (format!("key{}", KEYS - 1), Json::Int(KEYS as i128 - 1))
    );

    // A duplicate at the far end is still found, at the same offset as
    // ever: just past the repeated key.
    text.pop();
    text.push_str(",\"key0\":0}");
    let e = parse_within_bound("duplicate key", &text).unwrap_err();
    let at = text.len() - ":0}".len();
    assert_eq!(e.0, format!("duplicate object key at byte {at}"));
}
