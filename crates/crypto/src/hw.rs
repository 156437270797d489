//! The x86_64 hardware path: AES-256-GCM on AES-NI and PCLMULQDQ, SHA-256
//! and HMAC-SHA-256 on the SHA extensions.
//!
//! The paper's nodes run OpenSSL inside the enclave, and an SGX enclave
//! executes these instructions. Outputs are byte for byte those of the
//! portable stand-ins the crate falls back to; the crate's `oracle` tests
//! hold the two paths to each other.
//!
//! Every instruction-specific function carries `#[target_feature]`, so
//! calling one is `unsafe`. Each such call is reached only through a value
//! that exists after `is_x86_feature_detected!` confirmed the features: an
//! [`AesGcm`] token, or a [`Sha256`] built by [`Sha256::new`]. The other
//! `unsafe` blocks are the unaligned 16-byte loads and stores.
//!
//! All `unsafe` code of the crate lives in this file.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::arch::x86_64::*;

use crate::hash::ct_eq;
use crate::CryptoError;

const TAG_LEN: usize = 16;

/// Reads 16 bytes into a vector register.
#[inline]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, the load has no alignment
    // requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Writes a vector register out as 16 bytes.
#[inline]
fn store(v: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    // SAFETY: `out` is 16 writable bytes, the store has no alignment
    // requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
    out
}

// ---------------------------------------------------------------------------
// AES-256
// ---------------------------------------------------------------------------

const ROUNDS: usize = 14;

/// Blocks encrypted side by side: AESENC has a latency of several cycles
/// and a throughput of one or two per cycle, so independent blocks fill
/// the pipeline.
const LANES: usize = 8;

/// `prev ^ (prev << 32) ^ (prev << 64) ^ (prev << 96) ^ word`: one half
/// of an AES-256 key-schedule step.
#[inline]
#[target_feature(enable = "sse2")]
fn mix(prev: __m128i, word: __m128i) -> __m128i {
    let x = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
    let x = _mm_xor_si128(x, _mm_slli_si128::<8>(x));
    _mm_xor_si128(x, word)
}

/// The fifteen AES-256 round keys (FIPS 197 §5.2). `aeskeygenassist`
/// computes `SubWord` and `RotWord`; the round constant is XORed in after
/// it so that the loop needs no immediate per round.
#[target_feature(enable = "aes")]
fn expand_key(key: &[u8; 32]) -> [__m128i; ROUNDS + 1] {
    let mut rk = [_mm_setzero_si128(); ROUNDS + 1];
    rk[0] = load(&std::array::from_fn(|i| key[i]));
    rk[1] = load(&std::array::from_fn(|i| key[16 + i]));
    let mut rcon = 1;
    for i in (2..=ROUNDS).step_by(2) {
        let word = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<0>(rk[i - 1]));
        rk[i] = mix(rk[i - 2], _mm_xor_si128(word, _mm_set1_epi32(rcon)));
        rcon <<= 1;
        if i < ROUNDS {
            let word = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(rk[i]));
            rk[i + 1] = mix(rk[i - 1], word);
        }
    }
    rk
}

/// Encrypts `N` independent blocks, round by round across all of them.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt<const N: usize>(rk: &[__m128i; ROUNDS + 1], mut blocks: [__m128i; N]) -> [__m128i; N] {
    for b in &mut blocks {
        *b = _mm_xor_si128(*b, rk[0]);
    }
    for k in &rk[1..ROUNDS] {
        for b in &mut blocks {
            *b = _mm_aesenc_si128(*b, *k);
        }
    }
    for b in &mut blocks {
        *b = _mm_aesenclast_si128(*b, rk[ROUNDS]);
    }
    blocks
}

// ---------------------------------------------------------------------------
// GHASH
// ---------------------------------------------------------------------------
//
// Field elements are kept byte-reversed, so that the 128-bit register holds
// the polynomial with x^0 at the top bit. The multiply and reduction follow
// Gueron and Kounavis, "Intel Carry-Less Multiplication Instruction and its
// Usage for Computing the GCM Mode" (2010), Algorithms 2 and 4: a 256-bit
// carry-less product, a one-bit left shift for the bit reflection, then a
// reduction modulo x^128 + x^7 + x^2 + x + 1. Shift and reduction are
// linear, so the products of several blocks are summed first and reduced
// once.

/// Reverses the sixteen bytes of a block.
#[inline]
#[target_feature(enable = "ssse3")]
fn bswap(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// The unreduced 256-bit carry-less product of `a` and `b`, as (low, high).
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    (
        _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
        _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
    )
}

/// Adds one product into a running sum of products.
#[inline]
#[target_feature(enable = "sse2")]
fn add(sum: (__m128i, __m128i), p: (__m128i, __m128i)) -> (__m128i, __m128i) {
    (_mm_xor_si128(sum.0, p.0), _mm_xor_si128(sum.1, p.1))
}

/// Shifts a 256-bit product left by one bit and reduces it to a field
/// element.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce((lo, hi): (__m128i, __m128i)) -> __m128i {
    // The shift: each 32-bit lane moves up one bit and takes the carry of
    // the lane below it; the top carry of `lo` enters `hi`.
    let carry_lo = _mm_srli_epi32::<31>(lo);
    let carry_hi = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(carry_lo));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(carry_hi)),
        _mm_srli_si128::<12>(carry_lo),
    );
    // The reduction: fold `lo` into `hi` in two phases.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), _mm_srli_si128::<4>(a)),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
}

/// `a · b` in GHASH's field.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    reduce(clmul(a, b))
}

/// AES-256-GCM for one call: round keys, the powers of H and the
/// nonce's counter blocks.
struct Gcm {
    rk: [__m128i; ROUNDS + 1],
    /// `h[i]` = H^(i+1), byte-reversed.
    h: [__m128i; 4],
    /// The nonce with a zero counter word.
    base: __m128i,
    /// `E_K(J0)`, which masks the tag.
    mask: __m128i,
}

impl Gcm {
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
    fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Gcm {
        let rk = expand_key(key);
        let mut base = [0u8; 16];
        base[..12].copy_from_slice(nonce);
        let base = load(&base);
        let [h, mask] = encrypt(&rk, [_mm_setzero_si128(), counter_block(base, 1)]);
        let h1 = bswap(h);
        let h2 = gf_mul(h1, h1);
        let h3 = gf_mul(h2, h1);
        let h4 = gf_mul(h3, h1);
        Gcm {
            rk,
            h: [h1, h2, h3, h4],
            base,
            mask,
        }
    }

    /// XORs `data` with the keystream of counter blocks 2, 3, …
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn ctr(&self, data: &mut [u8]) {
        let mut n = 1u32;
        for chunk in data.chunks_mut(16 * LANES) {
            let mut blocks = [self.base; LANES];
            for b in &mut blocks {
                n = n.wrapping_add(1);
                *b = counter_block(self.base, n);
            }
            let stream = encrypt(&self.rk, blocks);
            let (full, tail) = chunk.as_chunks_mut::<16>();
            for (piece, k) in full.iter_mut().zip(stream) {
                *piece = store(_mm_xor_si128(load(piece), k));
            }
            if let Some(&k) = stream.get(full.len()) {
                for (d, s) in tail.iter_mut().zip(store(k)) {
                    *d ^= s;
                }
            }
        }
    }

    /// Folds `data`, zero-padded to whole blocks, into the hash state `y`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn absorb(&self, mut y: __m128i, data: &[u8]) -> __m128i {
        let [h1, h2, h3, h4] = self.h;
        let (blocks, rest) = data.as_chunks::<16>();
        let mut quads = blocks.chunks_exact(4);
        for q in &mut quads {
            let x0 = _mm_xor_si128(y, bswap(load(&q[0])));
            let mut sum = clmul(x0, h4);
            sum = add(sum, clmul(bswap(load(&q[1])), h3));
            sum = add(sum, clmul(bswap(load(&q[2])), h2));
            sum = add(sum, clmul(bswap(load(&q[3])), h1));
            y = reduce(sum);
        }
        for b in quads.remainder() {
            y = gf_mul(_mm_xor_si128(y, bswap(load(b))), h1);
        }
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            y = gf_mul(_mm_xor_si128(y, bswap(load(&last))), h1);
        }
        y
    }

    /// The tag over `aad` and `ciphertext` (NIST SP 800-38D §7.1).
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn tag(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let y = self.absorb(_mm_setzero_si128(), aad);
        let y = self.absorb(y, ciphertext);
        let bits = |len: usize| (len as u64).wrapping_mul(8) as i64;
        let lengths = _mm_set_epi64x(bits(aad.len()), bits(ciphertext.len()));
        let y = gf_mul(_mm_xor_si128(y, lengths), self.h[0]);
        store(_mm_xor_si128(bswap(y), self.mask))
    }
}

/// The counter block with counter `n`: the nonce, then `n` big-endian.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter_block(base: __m128i, n: u32) -> __m128i {
    _mm_insert_epi32::<3>(base, n.swap_bytes() as i32)
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let gcm = Gcm::new(key, nonce);
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    gcm.ctr(&mut out);
    let tag = gcm.tag(aad, &out);
    out.extend_from_slice(&tag);
    out
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn gcm_open(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let split = sealed
        .len()
        .checked_sub(TAG_LEN)
        .ok_or(CryptoError::AuthFailed)?;
    let (ciphertext, tag) = sealed.split_at(split);
    let gcm = Gcm::new(key, nonce);
    if !ct_eq(&gcm.tag(aad, ciphertext), tag) {
        return Err(CryptoError::AuthFailed);
    }
    let mut out = ciphertext.to_vec();
    gcm.ctr(&mut out);
    Ok(out)
}

/// Proof that this CPU executes AES-NI, PCLMULQDQ, SSSE3 and SSE4.1; its
/// methods are AES-256-GCM on them.
#[derive(Clone, Copy)]
pub(crate) struct AesGcm(());

impl AesGcm {
    /// The token, where the CPU has the instructions.
    pub(crate) fn detect() -> Option<AesGcm> {
        (is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(AesGcm(()))
    }

    /// `ciphertext ‖ tag`.
    pub(crate) fn seal(
        self,
        key: &[u8; 32],
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Vec<u8> {
        // SAFETY: an `AesGcm` exists only where `detect` found every
        // feature `gcm_seal` enables.
        unsafe { gcm_seal(key, nonce, aad, plaintext) }
    }

    /// The plaintext of `ciphertext ‖ tag`, once the tag verified in
    /// constant time. An input shorter than a tag fails authentication.
    pub(crate) fn open(
        self,
        key: &[u8; 32],
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        // SAFETY: as in `seal`.
        unsafe { gcm_open(key, nonce, aad, sealed) }
    }
}

// ---------------------------------------------------------------------------
// SHA-256 and HMAC
// ---------------------------------------------------------------------------

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

/// The round constants four to a row, as the bytes of a vector register.
const K_ROWS: [[u8; 16]; 16] = {
    let mut rows = [[0u8; 16]; 16];
    let mut i = 0;
    while i < 64 {
        let word = K[i].to_le_bytes();
        let mut j = 0;
        while j < 4 {
            rows[i / 4][(i % 4) * 4 + j] = word[j];
            j += 1;
        }
        i += 1;
    }
    rows
};

const INITIAL: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The next four message words from the previous sixteen (`w0` oldest).
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(t, w3)
}

/// Rounds `4i .. 4i+4` on the state halves (ABEF, CDGH) with words `w`.
#[inline]
#[target_feature(enable = "sha")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let t = _mm_add_epi32(w, load(&K_ROWS[i]));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, t);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(t));
}

/// The SHA-256 compression function (FIPS 180-4 §6.2.2) over `blocks`.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let words = |w: &[u32]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    // `sha256rnds2` wants the state as ABEF and CDGH.
    let dcba = words(&state[..4]);
    let efgh = _mm_shuffle_epi32::<0x1b>(words(&state[4..]));
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (rows, _) = block.as_chunks::<16>();
        let mut w0 = _mm_shuffle_epi8(load(&rows[0]), big_endian);
        let mut w1 = _mm_shuffle_epi8(load(&rows[1]), big_endian);
        let mut w2 = _mm_shuffle_epi8(load(&rows[2]), big_endian);
        let mut w3 = _mm_shuffle_epi8(load(&rows[3]), big_endian);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let halves = [
        store(_mm_blend_epi16::<0xf0>(feba, dchg)),
        store(_mm_alignr_epi8::<8>(dchg, feba)),
    ];
    for (word, bytes) in state
        .iter_mut()
        .zip(halves.as_flattened().as_chunks::<4>().0)
    {
        *word = u32::from_le_bytes(*bytes);
    }
}

/// Streaming SHA-256 on the SHA extensions.
pub(crate) struct Sha256 {
    state: [u32; 8],
    pending: [u8; 64],
    filled: usize,
    total: u64,
}

impl Sha256 {
    /// A hasher in its initial state, where the CPU has the SHA
    /// extensions, SSSE3 and SSE4.1.
    pub(crate) fn new() -> Option<Sha256> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(Sha256 {
            state: INITIAL,
            pending: [0; 64],
            filled: 0,
            total: 0,
        })
    }

    fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: a `Sha256` exists only where `new` found every feature
        // `sha256_blocks` enables, and only its methods call this.
        unsafe { sha256_blocks(state, blocks) }
    }

    /// Absorbs `data`.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.pending[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            Self::compress(&mut self.state, std::slice::from_ref(&self.pending));
            self.filled = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            Self::compress(&mut self.state, blocks);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Pads, finishes and returns the digest.
    pub(crate) fn finish(mut self) -> [u8; 32] {
        let mut tail = [0u8; 128];
        tail[..self.filled].copy_from_slice(&self.pending[..self.filled]);
        tail[self.filled] = 0x80;
        let len = if self.filled < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total.wrapping_mul(8).to_be_bytes());
        Self::compress(&mut self.state, tail[..len].as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// HMAC-SHA-256 (RFC 2104) under a key of any length, where the CPU has
/// the SHA extensions.
pub(crate) fn hmac(key: &[u8], data: &[u8]) -> Option<[u8; 32]> {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        let mut h = Sha256::new()?;
        h.update(key);
        block[..32].copy_from_slice(&h.finish());
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new()?;
    inner.update(&block.map(|b| b ^ 0x36));
    inner.update(data);
    let mut outer = Sha256::new()?;
    outer.update(&block.map(|b| b ^ 0x5c));
    outer.update(&inner.finish());
    Some(outer.finish())
}
