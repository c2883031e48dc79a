//! `parse_prometheus` survives hostile input: seeded mutations of a
//! rendered `MetricsRegistry` exposition — truncations, flipped bytes,
//! dropped, duplicated and reordered lines, odd sample values — never
//! panic it, every rejection names a line the text has, accepted and
//! rejected texts are both plentiful, and the unmutated text parses to the
//! registry's own samples.

use hira_obs::{parse_prometheus, MetricsRegistry};

/// Values a scrape could carry where a number goes: out of range, signed
/// zero, the spelled-out specials, and things that are not numbers.
const ODD: [&str; 14] = [
    "1e999", "-1e999", "-0", "NaN", "+Inf", "-Inf", "inf", "1e-400", "0x10", "1_000", ".5", "+1",
    "", "one",
];

/// SplitMix64: a seeded stream for the mutations.
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
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A registry with every instrument kind, labelled and not, holding
/// escapes, non-ASCII label text and odd gauge values.
fn registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter("hira_sweeps_total", "sweeps completed").add(42);
    for (op, n) in [("sweep", 1200), ("stats", 24), ("metrics", 12)] {
        reg.counter_with(
            "hira_serve_requests_total",
            "requests handled",
            &[("op", op)],
        )
        .add(n);
    }
    reg.counter_with(
        "hira_points_total",
        "sweep points finished",
        &[("result", "re\"played\\\nnow"), ("bin", "ddr4-2400 µs")],
    )
    .add(7);
    for (unit, v) in [
        ("ms", 12.5),
        ("zero", -0.0),
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
        ("tiny", 1e-300),
        ("huge", 1e300),
    ] {
        reg.gauge_with("hira_sweep_wall", "last sweep wall\\n", &[("unit", unit)])
            .set(v);
    }
    let wall = reg.histogram("hira_point_wall_us", "per-point wall time");
    for v in [0.0, 3.0, 900.0, 1e6, 2.5] {
        wall.observe(v);
    }
    reg.histogram_with("hira_point_queue_wait_us", "queue wait", &[("bin", "pm")])
        .observe(17.0);
    reg
}

/// `text` with one random mutation applied (an empty text stays empty).
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return String::new();
    }
    let at = rng.below(lines.len());
    match rng.below(6) {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            bytes.truncate(rng.below(bytes.len() + 1));
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 + rng.below(255) as u8;
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        2 => {
            let copy = lines[at].clone();
            let to = rng.below(lines.len() + 1);
            lines.insert(to, copy);
        }
        3 => {
            let other = rng.below(lines.len());
            lines.swap(at, other);
        }
        4 => {
            lines.remove(at);
        }
        _ => {
            // A sample's value replaced (a comment line gains a value).
            let line = &mut lines[at];
            if let Some(space) = line.rfind(' ').filter(|_| !line.starts_with('#')) {
                line.truncate(space + 1);
            } else {
                line.push(' ');
            }
            line.push_str(ODD[rng.below(ODD.len())]);
        }
    }
    let mut out = lines.join("\n");
    if rng.below(2) == 0 {
        out.push('\n');
    }
    out
}

#[test]
fn the_unmutated_exposition_parses_to_the_registry_samples() {
    let reg = registry();
    let text = reg.render();
    let samples = parse_prometheus(&text).expect(&text);
    let sample_lines = text.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(samples.len(), sample_lines);
    let value = |name: &str, labels: &[(&str, &str)]| {
        let found: Vec<f64> = samples
            .iter()
            .filter(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
            })
            .map(|s| s.value)
            .collect();
        assert_eq!(found.len(), 1, "{name} {labels:?} in\n{text}");
        found[0]
    };
    assert_eq!(value("hira_sweeps_total", &[]), 42.0);
    assert_eq!(value("hira_serve_requests_total", &[("op", "stats")]), 24.0);
    assert_eq!(
        value(
            "hira_points_total",
            &[("result", "re\"played\\\nnow"), ("bin", "ddr4-2400 µs")]
        ),
        7.0
    );
    assert_eq!(value("hira_sweep_wall", &[("unit", "ms")]), 12.5);
    let zero = value("hira_sweep_wall", &[("unit", "zero")]);
    assert!(zero == 0.0 && zero.is_sign_negative());
    assert!(value("hira_sweep_wall", &[("unit", "nan")]).is_nan());
    assert_eq!(value("hira_sweep_wall", &[("unit", "inf")]), f64::INFINITY);
    assert_eq!(value("hira_sweep_wall", &[("unit", "tiny")]), 1e-300);
    assert_eq!(value("hira_sweep_wall", &[("unit", "huge")]), 1e300);
    assert_eq!(value("hira_point_wall_us_count", &[]), 5.0);
    assert_eq!(value("hira_point_wall_us_bucket", &[("le", "+Inf")]), 5.0);
    assert_eq!(
        value("hira_point_queue_wait_us_count", &[("bin", "pm")]),
        1.0
    );
}

#[test]
fn parse_prometheus_never_panics_on_mutated_expositions() {
    let text = registry().render();
    let mut rng = Rng(0x9A25_E5C0);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..6_000 {
        let mut mutated = mutate(&mut rng, &text);
        if rng.below(3) == 0 {
            mutated = mutate(&mut rng, &mutated);
        }
        let parsed = std::panic::catch_unwind(|| parse_prometheus(&mutated))
            .unwrap_or_else(|_| panic!("parse_prometheus panicked on {mutated:?}"));
        match parsed {
            Ok(samples) => {
                accepted += 1;
                let sample_lines = mutated.lines().filter(|l| !l.starts_with('#')).count();
                assert_eq!(samples.len(), sample_lines, "{mutated:?}");
            }
            Err(msg) => {
                rejected += 1;
                let line: usize = msg
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("`{msg}` names no line"));
                let lines = mutated.lines().count();
                assert!(
                    (1..=lines).contains(&line),
                    "`{msg}` names line {line} of {lines}: {mutated:?}"
                );
            }
        }
    }
    assert!(
        accepted > 1_000 && rejected > 2_000,
        "{accepted} accepted, {rejected} rejected"
    );
}
