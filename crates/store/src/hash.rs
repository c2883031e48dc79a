//! Content addressing: SHA-256, point keys, and the code-version salt.
//!
//! A cached result is only reusable while the *code* that produced it is
//! equivalent, so every point key folds in a salt derived from
//! [`crate::CACHE_SCHEMA_VERSION`] and the caller's code fingerprint
//! sections (`hira-bench` passes a digest of the simulator's source). A
//! fingerprint change moves the salt and thereby invalidates the whole
//! store — conservative on purpose: a code change is a semantics change
//! until proven otherwise.

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 (FIPS 180-4). Hand-rolled because the workspace
/// builds offline with the standard library only; validated against the
/// published test vectors below.
///
/// Each 64-byte block goes through the x86 SHA extensions when the CPU has
/// them (`sha`, `ssse3` and `sse4.1`, detected once per hasher), and
/// through the portable scalar rounds otherwise. The two give the same
/// digest for every input; the tests hold the scalar path as the reference.
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    /// Whether [`Sha256::compress`] may run the SHA-extensions kernel: set
    /// only where [`sha_extensions`] found its CPU features.
    accelerated: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether this CPU runs [`sha_ni::compress`]: it has the SHA extensions
/// and the SSSE3 and SSE4.1 shuffles the kernel uses around them.
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl Sha256 {
    /// A fresh hasher in the standard initial state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
            accelerated: sha_extensions(),
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // `data` fitted entirely into the partial buffer; falling
                // through would clobber `buf_len` with the now-empty rest.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // One padding step: the 0x80 marker, zeros, and the length in the
        // last 8 bytes, spilling into a second block when the marker lands
        // past byte 55.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if self.accelerated {
            // SAFETY: `accelerated` is true only when `sha_extensions`
            // detected every CPU feature the kernel is compiled for.
            unsafe { sha_ni::compress(&mut self.state, block) };
            return;
        }
        compress_scalar(&mut self.state, block);
    }
}

/// One SHA-256 block in portable scalar code (FIPS 180-4 §6.2.2).
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One SHA-256 block through the x86 SHA extensions. The state lives in
/// two registers as `ABEF` and `CDGH`; `sha256rnds2` runs two rounds,
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Four round constants starting at `K[i]`, lowest lane first.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn k4(i: usize) -> __m128i {
        _mm_set_epi32(
            K[i + 3] as i32,
            K[i + 2] as i32,
            K[i + 1] as i32,
            K[i] as i32,
        )
    }

    /// Big-endian message words `4q..4q + 4` of `block`, lowest lane first.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn words(block: &[u8; 64], q: usize) -> __m128i {
        let w = |j: usize| {
            let at = 4 * (4 * q + j);
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Absorbs `block` into `state`, exactly as [`super::compress_scalar`].
    ///
    /// # Safety
    ///
    /// Callable only on a CPU where [`super::sha_extensions`] holds: its
    /// instructions are undefined on one without them.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let s = |i: usize| state[i] as i32;
        let dcba = _mm_set_epi32(s(3), s(2), s(1), s(0));
        let hgfe = _mm_set_epi32(s(7), s(6), s(5), s(4));
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w = [
            words(block, 0),
            words(block, 1),
            words(block, 2),
            words(block, 3),
        ];
        for q in 0..16 {
            if q >= 4 {
                // w[q] = σ-extension of w[q-4..q], in place of w[q-4].
                let (w0, w1, w2, w3) = (w[q % 4], w[(q + 1) % 4], w[(q + 2) % 4], w[(q + 3) % 4]);
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                w[q % 4] = _mm_sha256msg2_epu32(t, w3);
            }
            let wk = _mm_add_epi32(w[q % 4], k4(4 * q));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgef) as u32,
            _mm_extract_epi32::<1>(hgef) as u32,
            _mm_extract_epi32::<2>(hgef) as u32,
            _mm_extract_epi32::<3>(hgef) as u32,
        ];
    }
}

/// `digest` as 64 lowercase hex characters.
fn hex(digest: [u8; 32]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(64);
    for b in digest {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// SHA-256 of `data`, rendered as 64 lowercase hex characters.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    hex(h.finish())
}

/// The content-addressed identity of one sweep point: SHA-256 over the
/// canonical scenario configuration, the point's deterministic seed, and
/// the process's code-version [`code_version_salt`]. Stable across runs,
/// platforms and thread counts; any change to what the point *means*
/// (config, seed, schema version, code fingerprint) moves the key.
pub fn point_key(canonical_config: &str, seed: u64, salt: u64) -> String {
    let mut h = Sha256::new();
    h.update(b"hira-store/point\x1e");
    h.update(&salt.to_le_bytes());
    h.update(&seed.to_le_bytes());
    h.update(canonical_config.as_bytes());
    hex(h.finish())
}

/// [`code_version_salt`] with an explicit schema version — the testable
/// core: bumping the version or changing any section's entries changes the
/// salt; identical inputs (e.g. the same build in two processes) yield
/// the identical salt.
pub fn salt_with_version<'a>(
    version: u32,
    sections: impl IntoIterator<Item = (&'a str, Vec<String>)>,
) -> u64 {
    let mut h = Sha256::new();
    h.update(b"hira-store/salt\x1e");
    h.update(&version.to_le_bytes());
    for (name, entries) in sections {
        h.update(name.as_bytes());
        h.update(&[0x1f]); // unit separator: section name vs entries
        for e in entries {
            h.update(e.as_bytes());
            h.update(&[0x1f]);
        }
        h.update(&[0x1e]); // record separator between sections
    }
    u64::from_le_bytes(h.finish()[..8].try_into().expect("8 digest bytes"))
}

/// The code-version salt for the current [`crate::CACHE_SCHEMA_VERSION`]
/// and the given code fingerprint sections (section name → entries, in
/// order). Callers pass everything a cached result could depend on —
/// `hira-bench` passes the digest of the source that decides a point's
/// numbers.
pub fn code_version_salt<'a>(sections: impl IntoIterator<Item = (&'a str, Vec<String>)>) -> u64 {
    salt_with_version(crate::CACHE_SCHEMA_VERSION, sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hira_dram::rng::Stream;

    /// The compress paths this host can run: the scalar reference, then
    /// the SHA-extensions kernel when the CPU has it.
    fn paths() -> Vec<bool> {
        let mut paths = vec![false];
        if sha_extensions() {
            paths.push(true);
        }
        paths
    }

    /// The hex digest of `parts`, fed in order to a hasher on `path`.
    fn digest_on(accelerated: bool, parts: &[&[u8]]) -> String {
        let mut h = Sha256 {
            accelerated,
            ..Sha256::new()
        };
        for p in parts {
            h.update(p);
        }
        hex(h.finish())
    }

    #[test]
    fn sha256_matches_published_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // A multi-block message exercising the buffering path.
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for accelerated in paths() {
            for (data, want) in vectors {
                assert_eq!(
                    digest_on(accelerated, &[data]),
                    want,
                    "accelerated={accelerated}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn hosts_with_sha_extensions_hash_through_them() {
        assert_eq!(Sha256::new().accelerated, sha_extensions());
    }

    #[test]
    fn point_key_matches_its_golden_digest_on_both_paths() {
        // A 441-byte `ws` canonical string (hira4, stream, 64 Gb): eight
        // blocks with the padding. The digests were taken before the
        // SHA-extensions kernel existed.
        let canon = "task=ws;cores=8;channels=1;ranks=1;banks=16;bank_groups=4;chip_gbit=64;\
                     device=ddr4-2400;timing=tCK=0.8333;tRCD=14.25;tRAS=32;tRP=14.25;tRC=46.25;\
                     tRRDL=4.9;tRRDS=3.3;tFAW=16;tCCDL=5;tCCDS=3.333;tCL=14.25;tCWL=10;tBL=3.333;\
                     tWR=15;tWTR=7.5;tRTP=7.5;tRFC=1333.8305785291502;tREFI=7800;tREFW=64000000;\
                     policy=hira4;plugins=none;workload=stream;llc_bytes=8388608;llc_ways=8;\
                     queue_depth=64;insts=2000;warmup=400;spt=0.32;seed=20823;cycle_cap=default";
        assert_eq!(canon.len(), 441);
        let (seed, salt) = (0x9e37_79b9_7f4a_7c15_u64, 0x0123_4567_89ab_cdef_u64);
        assert_eq!(
            point_key(canon, seed, salt),
            "1f35eb189ed551152c41016fb78e53425bc2a32ad555cbef8a79bf407c5379ce"
        );
        for accelerated in paths() {
            let key = digest_on(
                accelerated,
                &[
                    b"hira-store/point\x1e",
                    &salt.to_le_bytes(),
                    &seed.to_le_bytes(),
                    canon.as_bytes(),
                ],
            );
            assert_eq!(
                key, "1f35eb189ed551152c41016fb78e53425bc2a32ad555cbef8a79bf407c5379ce",
                "accelerated={accelerated}"
            );
            assert_eq!(
                digest_on(accelerated, &[canon.as_bytes()]),
                "1fcdb5273d91d9d2a4fd95edb04756ea3e5f9033c8f21c25a3be7a583fc9bb26",
                "accelerated={accelerated}"
            );
        }
    }

    #[test]
    fn scalar_and_extension_paths_agree_on_random_splits() {
        // Every length from 0 to 300 bytes (every padding case, up to five
        // blocks) plus longer messages, each fed in random pieces: both
        // paths, and the one-shot digest, must agree.
        let mut rng = Stream::from_words(&[0x5a17]);
        let mut lens: Vec<usize> = (0..=300).collect();
        lens.extend([511, 512, 513, 4_095, 10_000]);
        for len in lens {
            let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
            let one_shot = sha256_hex(&data);
            let mut parts = Vec::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let take = 1 + rng.next_below(rest.len().min(150) as u64) as usize;
                let (part, tail) = rest.split_at(take);
                parts.push(part);
                rest = tail;
            }
            for accelerated in paths() {
                assert_eq!(
                    digest_on(accelerated, &parts),
                    one_shot,
                    "{len} bytes in {} parts, accelerated={accelerated}",
                    parts.len()
                );
            }
            assert_eq!(digest_on(false, &[&data]), one_shot, "{len} bytes");
        }
    }

    #[test]
    fn incremental_and_one_shot_digests_agree() {
        let data = b"the quick brown fox jumps over the lazy dog, repeatedly";
        let one_shot = sha256_hex(data);
        for split in [0, 1, 7, 32, data.len()] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(hex(h.finish()), one_shot, "split at {split}");
        }
    }

    #[test]
    fn point_keys_separate_config_seed_and_salt() {
        let base = point_key("cfg", 1, 2);
        assert_eq!(base.len(), 64);
        assert_eq!(base, point_key("cfg", 1, 2), "deterministic");
        assert_ne!(base, point_key("cfg2", 1, 2));
        assert_ne!(base, point_key("cfg", 3, 2));
        assert_ne!(base, point_key("cfg", 1, 4));
    }

    fn sections(names: &[&str]) -> Vec<(&'static str, Vec<String>)> {
        vec![("policy", names.iter().map(|s| s.to_string()).collect())]
    }

    #[test]
    fn salt_changes_with_schema_version_and_registry_contents() {
        let a = salt_with_version(1, sections(&["noref", "baseline"]));
        // Identical registries across processes: identical salt.
        assert_eq!(a, salt_with_version(1, sections(&["noref", "baseline"])));
        // Bumping CACHE_SCHEMA_VERSION invalidates everything.
        assert_ne!(a, salt_with_version(2, sections(&["noref", "baseline"])));
        // Adding a handle invalidates.
        assert_ne!(
            a,
            salt_with_version(1, sections(&["noref", "baseline", "hira4"]))
        );
        // Renaming a handle invalidates.
        assert_ne!(a, salt_with_version(1, sections(&["noref", "base-line"])));
        // Moving a name across section boundaries is not a collision.
        let split = salt_with_version(
            1,
            vec![
                ("policy", vec!["noref".to_string()]),
                ("workload", vec!["baseline".to_string()]),
            ],
        );
        assert_ne!(a, split);
        // Section names themselves matter.
        assert_ne!(
            salt_with_version(1, vec![("policy", vec![])]),
            salt_with_version(1, vec![("workload", vec![])]),
        );
    }

    #[test]
    fn code_version_salt_uses_the_crate_schema_version() {
        let here = code_version_salt(sections(&["noref"]));
        assert_eq!(
            here,
            salt_with_version(crate::CACHE_SCHEMA_VERSION, sections(&["noref"]))
        );
    }
}
