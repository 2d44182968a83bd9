//! Differential decode oracle: streaming typed decode (`from_str`, and
//! the snapshot `parse` functions built on it) against the tree path it
//! replaced (`parse` to a `Json` tree, then `from_json`).
//!
//! A seeded corpus of damaged documents — a real endurance savestate, a
//! daemon savestate and small typed documents, each hit with byte flips,
//! truncations, duplicated known and unknown keys, unknown fields that
//! hold an overflowing number or nest past `MAX_DEPTH`, integers written
//! as `1.0`/`1e2`/`2^53+2`, and trailing garbage — must get the same
//! verdict from both paths: both refuse, or both accept and re-encode to
//! the same bytes. The snapshot parsers must also pick the same refusal
//! (unknown version or damaged payload) as a version check on the tree.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use icm::experiments::endurance::World;
use icm::experiments::ExpConfig;
use icm::json::{FromJson, Json, JsonError, ToJson, MAX_DEPTH};
use icm::rng::Rng;
use icm_manager::snapshot::{FormatError, WorldSnapshot};
use icm_obs::Tracer;
use icm_server::{Server, ServerConfig, ServerSnapshot};

/// Wall-clock budget per base document; the mutation count is the cap.
const BUDGET: Duration = Duration::from_secs(6);

/// What a decode path made of one text.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Accepted; the value's compact re-encoding.
    Accepted(String),
    /// Refused as a well-formed document of another format version.
    Version(String),
    /// Refused as damaged.
    Refused,
}

impl Verdict {
    /// A one-line form for failure messages.
    fn summary(&self) -> String {
        match self {
            Verdict::Accepted(text) => format!("accepted ({} bytes)", text.len()),
            Verdict::Version(v) => format!("version {v}"),
            Verdict::Refused => "refused".to_owned(),
        }
    }
}

fn typed<T: ToJson>(result: Result<T, JsonError>) -> Verdict {
    match result {
        Ok(value) => Verdict::Accepted(icm::json::to_string(&value)),
        Err(_) => Verdict::Refused,
    }
}

/// Streaming and tree decode of `text` as a `T`.
fn both<T: FromJson + ToJson>(text: &str) -> (Verdict, Verdict) {
    let stream = typed(icm::json::from_str::<T>(text));
    let tree = typed(icm::json::parse(text).and_then(|json| T::from_json(&json)));
    (stream, tree)
}

/// The version-first rule on a tree: parse, compare `version`, decode.
fn by_tree<T: FromJson>(text: &str, expected: u64) -> Result<T, Option<f64>> {
    let value = icm::json::parse(text).map_err(|_| None)?;
    let version = value.get("version").and_then(Json::as_f64).ok_or(None)?;
    if version != expected as f64 {
        return Err(Some(version));
    }
    T::from_json(&value).map_err(|_| None)
}

/// A snapshot format's streaming `parse` against the version-first
/// rule on a tree; both must refuse another version by its typed
/// variant.
fn snapshot_verdicts<T: FromJson + ToJson, const READS: u64>(
    text: &str,
    parse: fn(&str) -> Result<T, FormatError<READS>>,
) -> (Verdict, Verdict) {
    let stream = match parse(text) {
        Ok(snapshot) => Verdict::Accepted(icm::json::to_string(&snapshot)),
        Err(FormatError::UnknownVersion(v)) => Verdict::Version(v.to_string()),
        Err(FormatError::Payload(_)) => Verdict::Refused,
    };
    let tree = match by_tree::<T>(text, READS) {
        Ok(snapshot) => Verdict::Accepted(icm::json::to_string(&snapshot)),
        Err(Some(v)) => Verdict::Version((v as u64).to_string()),
        Err(None) => Verdict::Refused,
    };
    (stream, tree)
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
            // whichever problem the tree check names.
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

/// Runs up to `count` seeded mutations of `text` (within [`BUDGET`])
/// through `verdicts`, asserting agreement. Returns how many mutations
/// both paths accepted, so a corpus that never reaches the accept path
/// fails loudly.
fn check_corpus(
    label: &str,
    text: &str,
    seed: u64,
    count: usize,
    verdicts: impl Fn(&str) -> (Verdict, Verdict),
) -> usize {
    let (stream, tree) = verdicts(text);
    assert!(
        matches!(stream, Verdict::Accepted(_)),
        "{label}: base refused"
    );
    assert_eq!(stream, tree, "{label}: base document");
    let mut rng = Rng::from_seed(seed);
    let begin = Instant::now();
    let mut accepted = 0;
    for i in 0..count {
        if begin.elapsed() > BUDGET {
            break;
        }
        let (kind, mutated) = mutate(text, &mut rng);
        let (stream, tree) = verdicts(&mutated);
        assert!(
            stream == tree,
            "{label}: mutation {i} ({kind}) split the paths: streaming {}, tree {}",
            stream.summary(),
            tree.summary()
        );
        accepted += usize::from(matches!(stream, Verdict::Accepted(_)));
    }
    accepted
}

#[test]
fn streaming_snapshot_decode_agrees_with_the_tree_on_damaged_savestates() {
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
        snapshot_verdicts(text, WorldSnapshot::parse)
    });
    assert!(accepted > 0, "no mutated savestate was accepted");

    let mut server = Server::start(ServerConfig::new(2016, true), None).expect("starts");
    let text = icm::json::to_string(&server.snapshot());
    check_corpus("server", &text, 0x5E4E, 40, |text| {
        snapshot_verdicts(text, ServerSnapshot::parse)
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
fn streaming_typed_decode_agrees_with_the_tree_on_damaged_documents() {
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
        let accepted = check_corpus(label, text, seed, 400, both::<Small>);
        assert!(accepted > 0, "{label}: no mutated document was accepted");
        check_corpus(label, text, seed + 100, 200, both::<Json>);
    }
    let config = icm::json::to_string(&icm_manager::ManagerConfig::default());
    check_corpus(
        "config",
        &config,
        13,
        300,
        both::<icm_manager::ManagerConfig>,
    );
}
