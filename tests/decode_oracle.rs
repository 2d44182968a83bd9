//! Decode oracle: typed decoding (`from_str`, and the snapshot `parse`
//! functions built on it) against golden verdicts.
//!
//! A seeded corpus of damaged documents — a real endurance savestate, a
//! daemon savestate and small typed documents, each hit with byte flips,
//! truncations, duplicated known and unknown keys, unknown fields that
//! hold an overflowing number or nest past `MAX_DEPTH`, integers written
//! as `1.0`/`1e2`/`2^53+2`, and trailing garbage — gets one verdict per
//! document: refused (`R`), refused as another format version (`V<n>`),
//! or accepted, written as the FNV-1a-64 of the value's compact
//! re-encoding. `decode_oracle.golden` pins every verdict. They were
//! recorded while a second, tree-based decoder still checked each one,
//! so a decoder that starts accepting damage, or decodes it to another
//! value, fails here. Every accepted text must also be valid JSON.

use std::collections::BTreeMap;

use icm::experiments::endurance::World;
use icm::experiments::ExpConfig;
use icm::json::fs::fnv1a64;
use icm::json::{Json, ToJson, MAX_DEPTH};
use icm::rng::Rng;
use icm_manager::snapshot::{FormatError, WorldSnapshot};
use icm_obs::Tracer;
use icm_server::{Server, ServerConfig, ServerSnapshot};

/// The pinned verdicts: one line per corpus, `label: verdict…`, the
/// base document's verdict first.
const GOLDEN: &str = include_str!("decode_oracle.golden");

/// The verdict for a decode of `text` that accepted `value`.
fn accepted<T: ToJson>(text: &str, value: &T) -> String {
    assert!(
        icm::json::parse(text).is_ok(),
        "a typed decoder accepted text that is not JSON: {text:?}"
    );
    format!("{:016x}", fnv1a64(icm::json::to_string(value).as_bytes()))
}

/// The verdict of decoding `text` as a `T`.
fn typed<T: icm::json::FromJson + ToJson>(text: &str) -> String {
    match icm::json::from_str::<T>(text) {
        Ok(value) => accepted(text, &value),
        Err(_) => "R".to_owned(),
    }
}

/// The verdict of a snapshot format's `parse` on `text`.
fn snapshot<T: ToJson, const READS: u64>(
    text: &str,
    parse: fn(&str) -> Result<T, FormatError<READS>>,
) -> String {
    match parse(text) {
        Ok(snapshot) => accepted(text, &snapshot),
        Err(FormatError::UnknownVersion(v)) => format!("V{v}"),
        Err(FormatError::Payload(_)) => "R".to_owned(),
    }
}

/// Byte offsets just after the `{` of each object whose first member
/// key follows it (after any whitespace).
fn object_starts(text: &str) -> Vec<usize> {
    text.match_indices('{')
        .map(|(i, _)| i + 1)
        .filter(|&at| text[at..].trim_start().starts_with('"'))
        .collect()
}

/// Byte ranges of integer tokens that follow `:`, `[` or `,`.
fn integer_tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 1;
    while i < bytes.len() {
        if matches!(bytes[i - 1], b':' | b'[' | b',') && bytes[i].is_ascii_digit() {
            let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            if !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
                tokens.push((i, end));
            }
            i = end;
        } else {
            i += 1;
        }
    }
    tokens
}

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

fn insert(text: &str, at: usize, piece: &str) -> String {
    format!("{}{piece}{}", &text[..at], &text[at..])
}

/// One seeded mutation of `text`, with its name.
fn mutate(text: &str, rng: &mut Rng) -> (&'static str, String) {
    const ASCII: &[u8] = b"{}[]:,\"\\0123456789-+.eEtrufalsn x";
    let objects = object_starts(text);
    let deep = format!(
        "\"zz_unknown\":{}{},",
        "[".repeat(MAX_DEPTH + 2),
        "]".repeat(MAX_DEPTH + 2)
    );
    let shallow = format!("\"zz_unknown\":{}1{},", "[".repeat(20), "]".repeat(20));
    match rng.gen_range(0..12u32) {
        0 | 1 => {
            let ascii: Vec<usize> = (0..text.len())
                .filter(|&i| text.as_bytes()[i].is_ascii())
                .collect();
            let Some(at) = pick(rng, &ascii) else {
                return ("none", text.to_owned());
            };
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = ASCII[rng.gen_range(0..ASCII.len())];
            let flipped = String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8");
            ("byte flip", flipped)
        }
        2 => {
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            ("truncation", text[..cut].to_owned())
        }
        3 => match pick(rng, &objects) {
            Some(at) => {
                let open = at + text[at..].find('"').expect("a key follows");
                let close = open + 1 + text[open + 1..].find('"').expect("closed key");
                let key = &text[open..=close];
                (
                    "duplicate known key",
                    insert(text, at, &format!("{key}:0,")),
                )
            }
            None => ("none", text.to_owned()),
        },
        4 => match pick(rng, &objects) {
            Some(at) => (
                "duplicate unknown key",
                insert(text, at, "\"zz_unknown\":1,\"zz_unknown\":[2],"),
            ),
            None => ("none", text.to_owned()),
        },
        5 => match pick(rng, &objects) {
            Some(at) => ("unknown 1e999", insert(text, at, "\"zz_unknown\":1e999,")),
            None => ("none", text.to_owned()),
        },
        6 => match pick(rng, &objects) {
            Some(at) => ("unknown too deep", insert(text, at, &deep)),
            None => ("none", text.to_owned()),
        },
        7 => match pick(rng, &objects) {
            Some(at) => ("unknown nested", insert(text, at, &shallow)),
            None => ("none", text.to_owned()),
        },
        8 => {
            let tokens = integer_tokens(text);
            match pick(rng, &tokens) {
                Some((from, to)) => {
                    let forms = ["1.0", "1e2", "9007199254740994", "-0", "0.5"];
                    let form = forms[rng.gen_range(0..forms.len())];
                    let rewritten = format!("{}{form}{}", &text[..from], &text[to..]);
                    ("integer form", rewritten)
                }
                None => ("none", text.to_owned()),
            }
        }
        9 => {
            let tails = [" x", "{}", ",", " ", "\n"];
            let tail = tails[rng.gen_range(0..tails.len())];
            ("trailing", format!("{text}{tail}"))
        }
        10 => (
            "other version",
            text.replacen(
                &format!("\"version\":{}", first_version(text)),
                "\"version\":9",
                1,
            ),
        ),
        _ => {
            // Another version plus damage elsewhere: the refusal must name
            // whichever problem a version-first check names.
            let versioned = text.replacen(
                &format!("\"version\":{}", first_version(text)),
                "\"version\":9",
                1,
            );
            let (_, damaged) = mutate(&versioned, rng);
            ("other version and damage", damaged)
        }
    }
}

fn first_version(text: &str) -> String {
    text.split("\"version\":")
        .nth(1)
        .map(|rest| rest.chars().take_while(char::is_ascii_digit).collect())
        .unwrap_or_default()
}

/// Runs `count` seeded mutations of `text` through `verdict` and checks
/// the base document's verdict and every mutation's against the golden
/// line `label`. Returns how many mutations were accepted, so a corpus
/// that never reaches the accept path fails loudly.
fn check_corpus(
    label: &str,
    text: &str,
    seed: u64,
    count: usize,
    verdict: impl Fn(&str) -> String,
) -> usize {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(label)?.strip_prefix(": "))
        .unwrap_or_else(|| panic!("{label}: no golden line"))
        .split(' ')
        .collect();
    assert_eq!(golden.len(), count + 1, "{label}: golden verdict count");
    let base = verdict(text);
    assert_eq!(base, golden[0], "{label}: base document");
    assert!(base.len() == 16, "{label}: base refused");
    let mut rng = Rng::from_seed(seed);
    let mut accepted = 0;
    for (i, expected) in golden[1..].iter().enumerate() {
        let (kind, mutated) = mutate(text, &mut rng);
        let found = verdict(&mutated);
        assert_eq!(
            found, *expected,
            "{label}: mutation {i} ({kind}) left its golden verdict"
        );
        accepted += usize::from(found.len() == 16);
    }
    accepted
}

#[test]
fn snapshot_decode_keeps_its_golden_verdicts_on_damaged_savestates() {
    let tracer = Tracer::disabled();
    let cfg = ExpConfig {
        seed: 7,
        fast: false,
    };
    let mut world = World::new(&cfg, &tracer).expect("world builds");
    world.config.ticks = 300;
    while !world.run.is_done(&world.config) {
        world.step(&tracer).expect("steps");
    }
    let text = world.snapshot(&tracer, None, 0).to_text();
    let accepted = check_corpus("world", &text, 0xDEC0DE, 60, |text| {
        snapshot(text, WorldSnapshot::parse)
    });
    assert!(accepted > 0, "no mutated savestate was accepted");

    let server = Server::start(ServerConfig::new(2016, true), None).expect("starts");
    let text = icm::json::to_string(&server.snapshot());
    check_corpus("server", &text, 0x5E4E, 40, |text| {
        snapshot(text, ServerSnapshot::parse)
    });
}

#[derive(Debug, Clone, PartialEq)]
struct Small {
    id: u32,
    weight: f64,
    label: String,
    tags: Vec<Option<bool>>,
    pair: (i64, f32),
    triple: (String, u8, [u16; 2]),
    table: BTreeMap<String, Vec<usize>>,
    note: Option<String>,
    version: u64,
}

icm::json::impl_json!(struct Small {
    id,
    weight = 1.0,
    label,
    tags,
    pair,
    triple,
    table,
    note = None,
    version = 1,
});

#[test]
fn typed_decode_keeps_its_golden_verdicts_on_damaged_documents() {
    let small = Small {
        id: 3,
        weight: -0.25,
        label: "a\"é\n🦀".into(),
        tags: vec![Some(true), None, Some(false)],
        pair: (-7, 0.5),
        triple: ("t\\u".into(), 255, [0, 65535]),
        table: BTreeMap::from([
            ("k".to_owned(), vec![1, 2]),
            ("\u{1}".to_owned(), Vec::new()),
        ]),
        note: Some("n".into()),
        version: 1,
    };
    let compact = icm::json::to_string(&small);
    let pretty = icm::json::to_string_pretty(&small);
    for (label, text, seed) in [("compact", &compact, 11), ("pretty", &pretty, 12)] {
        let accepted = check_corpus(label, text, seed, 400, typed::<Small>);
        assert!(accepted > 0, "{label}: no mutated document was accepted");
        let label = format!("{label}-json");
        check_corpus(&label, text, seed + 100, 200, typed::<Json>);
    }
    let config = icm::json::to_string(&icm_manager::ManagerConfig::default());
    check_corpus(
        "config",
        &config,
        13,
        300,
        typed::<icm_manager::ManagerConfig>,
    );
}

/// A verdict string that records nothing would pass any decoder: the
/// golden file must hold every kind of verdict.
#[test]
fn the_goldens_hold_refusals_version_refusals_and_acceptances() {
    let verdicts: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(": "))
        .flat_map(|(_, verdicts)| verdicts.split(' '))
        .collect();
    assert!(verdicts.contains(&"R"));
    assert!(verdicts.iter().any(|v| v.starts_with('V')));
    assert!(verdicts.iter().filter(|v| v.len() == 16).count() > 10);
}
