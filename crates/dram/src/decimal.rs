//! Decimal text byte-identical to `Display`, without the formatting
//! machinery: the number writers behind the canonical configuration
//! strings the sweep cache keys by ([`crate::timing::TimingParams::write_cache_descriptor`]
//! and `hira_sim::SystemConfig::write_cache_descriptor`). A `write!` goes
//! through `fmt::Arguments` for every number, several times the cost of
//! the digits themselves, and a warm sweep point renders some forty
//! numbers.

use std::fmt::Write as _;

/// Appends `n` exactly as `Display` writes it.
pub fn write_u64(out: &mut String, n: u64) {
    write_fixed(out, n, 0);
}

/// `10^k` for every `k` the fast path of [`write_f64`] tries; each is an
/// exact `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The fast path's bound on a value's decimal units (`v × 10^places`).
/// Below it the decimals one unit apart are more than four ulps of `v`
/// apart, so at most one of them parses back to `v`, and none lies on a
/// rounding boundary.
const MAX_UNITS: f64 = (1u64 << 50) as f64;

/// Appends `v` exactly as `Display` writes it: the shortest decimal that
/// parses back to `v`, in positional form (`1e-7` is `0.0000001`).
///
/// A positive value with at most 15 decimal places and fewer than 2^50
/// units in its last place — `8`, `0.32`, `14.25`, `64000000` — is written
/// from the fewest places at which `units / 10^places` (one correctly
/// rounded division, exactly what parsing that decimal yields) equals `v`.
/// At that count the decimal is unique, so it is the shortest and the
/// closest, which is what `Display` prints. Everything else (zero's sign,
/// negatives, NaN, infinities, long fractions such as a capacity-scaled
/// `tRFC`) goes through `Display` itself.
pub fn write_f64(out: &mut String, v: f64) {
    if v > 0.0 {
        for (places, &scale) in POW10.iter().enumerate() {
            let scaled = v * scale;
            if scaled >= MAX_UNITS {
                break;
            }
            let units = (scaled + 0.5) as u64;
            if units as f64 / scale == v {
                write_fixed(out, units, places);
                return;
            }
        }
    }
    let _ = write!(out, "{v}");
}

/// Appends `units / 10^places` in positional form, with at least one
/// digit before the point.
fn write_fixed(out: &mut String, mut units: u64, places: usize) {
    let mut digits = [0u8; 24];
    let mut at = digits.len();
    while units > 0 || digits.len() - at <= places {
        at -= 1;
        digits[at] = b'0' + (units % 10) as u8;
        units /= 10;
    }
    let point = digits.len() - places;
    out.extend(digits[at..point].iter().map(|&d| char::from(d)));
    if places > 0 {
        out.push('.');
        out.extend(digits[point..].iter().map(|&d| char::from(d)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Stream;

    fn rendered(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    #[test]
    fn integers_render_as_display_does() {
        let edges = [0, 1, 9, 10, 99, 100, 0x5157, 8 << 20, u64::MAX - 1];
        for n in edges.into_iter().chain([u64::MAX]) {
            let mut out = String::from("x=");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x={n}"));
        }
    }

    #[test]
    fn floats_render_as_display_does() {
        let mut rng = Stream::from_words(&[0x0DEC_13A1]);
        let mut fixed = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e21,
            1e-7,
            0.1 + 0.2,
            0.8333,
            3.333,
            0.32,
            64_000_000.0,
            (1u64 << 50) as f64,
            (1u64 << 53) as f64 + 2.0,
            1e15 + 0.5,
            999_999_999_999_999.9,
            0.000_000_000_000_001,
            0.000_000_000_000_000_1,
        ];
        fixed.extend((0..400).map(|i| 110.0 * (f64::from(i) / 4.0).powf(0.6)));
        for v in fixed {
            assert_eq!(rendered(v), format!("{v}"), "bits {:#x}", v.to_bits());
        }
        for _ in 0..50_000 {
            // Short decimals at every scale, their one-ulp neighbours, and
            // arbitrary bit patterns.
            let places = rng.next_below(18) as i32;
            let width = rng.next_below(56);
            let units = rng.next_below(1 << width);
            let v = units as f64 / 10f64.powi(places);
            let bits = v.to_bits();
            for v in [
                v,
                f64::from_bits(bits + 1),
                f64::from_bits(bits.saturating_sub(1)),
                f64::from_bits(rng.next_u64()),
            ] {
                assert_eq!(rendered(v), format!("{v}"), "bits {:#x}", v.to_bits());
            }
        }
    }
}
