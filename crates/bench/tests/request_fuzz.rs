//! The request parsers survive hostile input: seeded mutations of valid
//! `hira serve` request lines — truncations, flipped bytes, dropped and
//! duplicated fields, odd numbers — never panic `hira_engine::json::parse`
//! or `serve::parse_op`, both accept and reject a sizeable share, and every
//! line `parse_op` accepts is JSON.

use hira_bench::serve::{parse_op, Op};
use hira_dram::rng::Stream;
use hira_engine::json;

/// Numbers a client could send where a count or capacity goes: out of
/// range, negative zero, fractional, oddly spelled or not numbers at all.
const ODD: [&str; 14] = [
    "1e999",
    "-1e999",
    "-0",
    "18446744073709551616",
    "18446744073709551615",
    "1e-400",
    "0.5",
    "-1",
    "01",
    "1.",
    ".5",
    "2e3",
    "-",
    "NaN",
];

fn pick(rng: &mut Stream, n: usize) -> usize {
    rng.next_below(n.max(1) as u64) as usize
}

/// A JSON string literal of up to 8 characters, some of which need escapes.
fn string(rng: &mut Stream) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', '4', '-', ':', '"', '\\', '\n', '\u{1}', 'é', '🦀', ' ',
    ];
    let s: String = (0..rng.next_below(9))
        .map(|_| CHARS[pick(rng, CHARS.len())])
        .collect();
    let mut out = String::new();
    json::write_str(&mut out, &s);
    out
}

/// A JSON array of up to 3 names, from the registries or not.
fn names(rng: &mut Stream, from: &[&str]) -> String {
    let items: Vec<String> = (0..rng.next_below(4))
        .map(|_| format!("\"{}\"", from[pick(rng, from.len())]))
        .collect();
    format!("[{}]", items.join(","))
}

/// The `(key, raw JSON value)` fields of a valid request line.
fn request(rng: &mut Stream) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let op = ["sweep", "sweep", "sweep", "stats", "metrics", "shutdown"][pick(rng, 6)];
    fields.push(("op".to_owned(), format!("\"{op}\"")));
    if op != "sweep" {
        return fields;
    }
    fields.push(("id".to_owned(), string(rng)));
    let optional = [
        ("name", string(rng)),
        ("task", ["\"ws\"", "\"ws+stats\""][pick(rng, 2)].to_owned()),
        (
            "policies",
            names(rng, &["baseline", "hira4", "noref", "hira9", "nope"]),
        ),
        ("workloads", names(rng, &["mix0", "stream", "rw50"])),
        ("devices", names(rng, &["ddr4-2400", "lpddr4-3200"])),
        ("plugins", names(rng, &["none", "para:0.05", "oracle:64"])),
        (
            "caps",
            format!(
                "[{}]",
                (0..rng.next_below(3))
                    .map(|_| ["8", "64", "16.0"][pick(rng, 3)])
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("insts", (1 + rng.next_below(100_000)).to_string()),
    ];
    for (key, value) in optional {
        if rng.next_below(2) == 0 {
            fields.push((key.to_owned(), value));
        }
    }
    fields
}

fn render(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// One random corruption of `fields`: a dropped field, a duplicated one
/// (keeping its value or taking an odd number), or a value replaced by an
/// odd number or a list of one.
fn mutate_fields(rng: &mut Stream, fields: &mut Vec<(String, String)>) {
    let at = pick(rng, fields.len());
    let odd = ODD[pick(rng, ODD.len())];
    match rng.next_below(3) {
        0 if !fields.is_empty() => {
            fields.remove(at);
        }
        1 if !fields.is_empty() => {
            let mut copy = fields[at].clone();
            if rng.next_below(2) == 0 {
                copy.1 = odd.to_owned();
            }
            let to = pick(rng, fields.len() + 1);
            fields.insert(to, copy);
        }
        _ if !fields.is_empty() => {
            fields[at].1 = match rng.next_below(2) {
                0 => odd.to_owned(),
                _ => format!("[{odd}]"),
            };
        }
        _ => {}
    }
}

/// `line` truncated, or with one byte flipped.
fn mutate_bytes(rng: &mut Stream, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if rng.next_below(2) == 0 {
        bytes.truncate(pick(rng, bytes.len()));
    } else if !bytes.is_empty() {
        let i = pick(rng, bytes.len());
        bytes[i] ^= 1 + rng.next_below(255) as u8;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn request_parsers_never_panic_on_mutated_lines() {
    let mut rng = Stream::from_words(&[0x5E2E_F022]);
    let (mut accepted, mut rejected, mut json_only) = (0, 0, 0);
    for _ in 0..6_000 {
        let mut fields = request(&mut rng);
        let valid = render(&fields);
        assert!(parse_op(&valid).is_ok(), "valid line rejected: {valid}");
        let mut line = valid;
        match rng.next_below(3) {
            0 => line = mutate_bytes(&mut rng, &line),
            kind => {
                for _ in 0..kind {
                    mutate_fields(&mut rng, &mut fields);
                }
                line = render(&fields);
                if rng.next_below(4) == 0 {
                    line = mutate_bytes(&mut rng, &line);
                }
            }
        }
        let parsed_json = std::panic::catch_unwind(|| json::parse(&line))
            .unwrap_or_else(|_| panic!("json::parse panicked on {line:?}"));
        let op = std::panic::catch_unwind(|| parse_op(&line))
            .unwrap_or_else(|_| panic!("parse_op panicked on {line:?}"));
        match op {
            Ok(op) => {
                accepted += 1;
                assert!(parsed_json.is_ok(), "parse_op accepted non-JSON {line:?}");
                if let Op::Sweep(spec) = op {
                    assert!(!spec.policies.is_empty() && !spec.workloads.is_empty());
                }
            }
            Err(msg) => {
                rejected += 1;
                assert!(!msg.is_empty(), "empty rejection of {line:?}");
                if parsed_json.is_ok() {
                    json_only += 1;
                }
            }
        }
    }
    // About a sixth of the lines stay requests; a third of the rest is
    // JSON that `parse_op` refuses by shape.
    assert!(
        accepted > 600 && rejected > 2_000 && json_only > 1_000,
        "{accepted} accepted, {rejected} rejected ({json_only} of them JSON)"
    );
}
