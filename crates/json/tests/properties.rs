//! Seeded properties of the string scanner (see DESIGN.md §6).
//!
//! Each test draws a few hundred random strings from a seeded SplitMix64
//! stream, so coverage is property-shaped but fully deterministic: a
//! failure reproduces by its printed case number alone. The crate has no
//! dependencies, so the generator lives here.

use sharing_json::Json;

const CASES: u64 = 400;

/// SplitMix64, as in `sharing_trace::Rng64`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Scalars of every UTF-8 width.
const MULTIBYTE: [char; 8] = ['é', 'ß', 'Ω', '€', '中', '\u{FFFD}', '😀', '\u{10FFFF}'];

/// One random scalar: ASCII, multi-byte, a control character, or one of
/// the characters the writer must escape.
fn arb_char(rng: &mut Rng) -> char {
    match rng.below(4) {
        0 => char::from(b' ' + rng.below(95) as u8),
        1 => rng.pick(&MULTIBYTE),
        2 => char::from(rng.below(0x20) as u8),
        _ => rng.pick(&['"', '\\', '/', '\u{7F}']),
    }
}

/// A random string, with long plain runs as often as short ones.
fn arb_string(rng: &mut Rng) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(24) {
        if rng.below(4) == 0 {
            s.push_str(&"x".repeat(rng.below(300)));
        } else {
            s.push(arb_char(rng));
        }
    }
    s
}

/// A random string literal body as a client might hand-write it (raw
/// scalars and every escape form the grammar has, `\u` pairs included)
/// together with the string it decodes to.
fn arb_source(rng: &mut Rng) -> (String, String) {
    let (mut src, mut val) = (String::new(), String::new());
    for _ in 0..rng.below(24) {
        match rng.below(6) {
            0 => {
                let run = "plain run ".repeat(rng.below(40));
                src.push_str(&run);
                val.push_str(&run);
            }
            1 => {
                let c = rng.pick(&MULTIBYTE);
                src.push(c);
                val.push(c);
            }
            2 => {
                let (esc, c) = rng.pick(&[
                    ("\\\"", '"'),
                    ("\\\\", '\\'),
                    ("\\/", '/'),
                    ("\\b", '\u{08}'),
                    ("\\f", '\u{0C}'),
                    ("\\n", '\n'),
                    ("\\r", '\r'),
                    ("\\t", '\t'),
                ]);
                src.push_str(esc);
                val.push(c);
            }
            3 => {
                let c = char::from(rng.below(0x20) as u8);
                src.push_str(&format!("\\u{:04x}", c as u32));
                val.push(c);
            }
            4 => {
                let c = rng.pick(&MULTIBYTE);
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    src.push_str(&format!("\\u{:04X}", u));
                }
                val.push(c);
            }
            _ => {
                let c = char::from(b'0' + rng.below(10) as u8);
                src.push(c);
                val.push(c);
            }
        }
    }
    (src, val)
}

/// Whatever the writer emits for a string parses back to that string,
/// both as a value and as an object key.
#[test]
fn written_strings_round_trip_as_values_and_keys() {
    for case in 0..CASES {
        let mut rng = Rng(0x5CA7 + case);
        let s = arb_string(&mut rng);
        let text = Json::Str(s.clone()).to_string();
        assert_eq!(Json::parse(&text), Ok(Json::Str(s.clone())), "case {case}");
        let obj = Json::Obj(vec![(s.clone(), Json::Str(s))]);
        assert_eq!(Json::parse(&obj.to_string()), Ok(obj), "case {case}");
    }
}

/// Hand-written literals with raw multi-byte scalars and every escape form
/// decode to the expected string.
#[test]
fn raw_scalars_and_escapes_decode() {
    for case in 0..CASES {
        let mut rng = Rng(0xDEC0 + case);
        let (src, val) = arb_source(&mut rng);
        let text = format!("{{\"{src}\":[\"{src}\"]}}");
        let want = Json::Obj(vec![(val.clone(), Json::Arr(vec![Json::Str(val)]))]);
        assert_eq!(Json::parse(&text), Ok(want), "case {case}: {text:?}");
    }
}

/// A raw control byte inside a string is rejected at its own offset, after
/// any run of plain text, escapes or multi-byte scalars before it.
#[test]
fn raw_control_bytes_are_rejected_at_their_offset() {
    for case in 0..CASES {
        let mut rng = Rng(0xC0DE + case);
        let (src, _) = arb_source(&mut rng);
        let ctrl = char::from(rng.below(0x20) as u8);
        let (head, tail) = (arb_source(&mut rng).0, arb_source(&mut rng).0);
        let text = format!("[\"{head}\",\"{src}{ctrl}{tail}\"]");
        let at = "[\"".len() + head.len() + "\",\"".len() + src.len();
        let e = Json::parse(&text).unwrap_err();
        assert_eq!(
            e.0,
            format!("raw control character in string at byte {at}"),
            "case {case}: {text:?}"
        );
    }
}

/// Objects of any width, narrow ones checked by a scan and wide ones by
/// key hashes, round-trip; a repeat of any earlier key, however it is
/// written, is rejected just past the repeated key.
#[test]
fn duplicate_keys_are_found_in_objects_of_any_width() {
    for case in 0..CASES {
        let mut rng = Rng(0xD0B + case);
        let mut keys: Vec<String> = Vec::new();
        for _ in 0..=rng.below(40) {
            let k = arb_string(&mut rng);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let obj = Json::Obj(keys.iter().map(|k| (k.clone(), Json::Null)).collect());
        let mut text = obj.to_string();
        assert_eq!(Json::parse(&text), Ok(obj), "case {case}");

        let dup = &keys[rng.below(keys.len())];
        text.pop();
        text.push(',');
        if rng.below(2) == 0 {
            text.push_str(&Json::Str(dup.clone()).to_string());
        } else {
            // The same key with every scalar written as a \u escape.
            text.push('"');
            for u in dup.encode_utf16() {
                text.push_str(&format!("\\u{u:04x}"));
            }
            text.push('"');
        }
        let at = text.len();
        text.push_str(":0}");
        let e = Json::parse(&text).unwrap_err();
        assert_eq!(
            e.0,
            format!("duplicate object key at byte {at}"),
            "case {case}"
        );
    }
}
