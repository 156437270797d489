//! Stand-in for `aes-gcm` 0.10: a real AES-256-GCM (FIPS 197, NIST SP
//! 800-38D, 96-bit nonces, 128-bit tags) behind the `Aead`/`KeyInit` subset
//! the tree calls.
//!
//! Portable software only: AES through four 1 KiB round tables, GHASH through
//! a per-key 256-entry table (Shoup's method). Table lookups indexed by
//! secret bytes are not constant time, and there is no AES-NI/CLMUL path, so
//! this is a benchmark stand-in whose wall-clock cost is an upper bound on
//! what the published crate costs on hardware with those instructions.

use std::borrow::Borrow;

/// An AES-256 key.
pub type Key = [u8; 32];

/// A 96-bit GCM nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nonce([u8; 12]);

impl Nonce {
    /// Copies a 12-byte slice.
    ///
    /// # Panics
    ///
    /// If `bytes` is not 12 bytes long, like the published crate.
    pub fn from_slice(bytes: &[u8]) -> Nonce {
        Nonce(bytes.try_into().expect("a GCM nonce is 12 bytes"))
    }
}

/// Construction from a key.
pub trait KeyInit {
    /// Expands `key` into a ready cipher.
    fn new(key: &Key) -> Self;
}

pub mod aead {
    //! The AEAD interface.

    use std::borrow::Borrow;

    /// Message and associated data of one AEAD call.
    pub struct Payload<'msg, 'aad> {
        /// Plaintext to encrypt, or `ciphertext ‖ tag` to decrypt.
        pub msg: &'msg [u8],
        /// Authenticated but not encrypted.
        pub aad: &'aad [u8],
    }

    /// Authentication failed (or the input was too short to hold a tag).
    /// Carries no detail, by design of the published crate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Error;

    /// Authenticated encryption with a detached nothing: the tag is the last
    /// 16 bytes of the ciphertext.
    pub trait Aead {
        /// Returns `ciphertext ‖ tag`.
        fn encrypt(
            &self,
            nonce: impl Borrow<super::Nonce>,
            payload: Payload<'_, '_>,
        ) -> Result<Vec<u8>, Error>;
        /// Verifies the tag, then returns the plaintext.
        fn decrypt(
            &self,
            nonce: impl Borrow<super::Nonce>,
            payload: Payload<'_, '_>,
        ) -> Result<Vec<u8>, Error>;
    }
}

use aead::{Aead, Error, Payload};

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// The AES S-box, from the multiplicative inverse in GF(2^8) followed by the
/// affine map (FIPS 197 §5.1.1), walked with generator 3 and its inverse.
const fn sbox() -> [u8; 256] {
    let mut table = [0u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p ^= xtime(p);
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        table[p as usize] =
            q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4) ^ 0x63;
        if p == 1 {
            break;
        }
    }
    table[0] = 0x63;
    table
}

const SBOX: [u8; 256] = sbox();

/// `TE[r][x]` is column `r` of MixColumns applied to `SubBytes(x)`, so one
/// round is sixteen lookups and twelve XORs.
const fn round_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let w = u32::from_be_bytes([s2, s, s, s3]);
        te[0][x] = w;
        te[1][x] = w.rotate_right(8);
        te[2][x] = w.rotate_right(16);
        te[3][x] = w.rotate_right(24);
        x += 1;
    }
    te
}

static TE: [[u32; 256]; 4] = round_tables();

/// `REDUCE[r]` is `r · x^128` modulo the GCM polynomial, for the eight
/// coefficients `r`. Its degree is at most 14, so it fits the top 16 bits.
const fn reduce_table() -> [u128; 256] {
    let mut table = [0u128; 256];
    let mut r = 0;
    while r < 256 {
        // Start with `r` as the coefficients of x^120..x^127 and multiply
        // by x eight times.
        let mut v = r as u128;
        let mut i = 0;
        while i < 8 {
            v = mul_x(v);
            i += 1;
        }
        table[r] = v;
        r += 1;
    }
    table
}

static REDUCE: [u128; 256] = reduce_table();

/// Multiplies a GHASH field element by x. Elements are loaded big-endian, so
/// the coefficient of x^0 is the most significant bit and x^127 the least.
const fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ if v & 1 != 0 { 0xe1 << 120 } else { 0 }
}

const ROUNDS: usize = 14;

/// AES-256-GCM with a 96-bit nonce and a 128-bit tag.
#[derive(Clone)]
pub struct Aes256Gcm {
    round_keys: [u32; 4 * (ROUNDS + 1)],
    /// `h_table[b]` = (byte `b` as the first byte of a block) · H.
    h_table: Box<[u128; 256]>,
}

fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

impl KeyInit for Aes256Gcm {
    fn new(key: &Key) -> Self {
        let mut rk = [0u32; 4 * (ROUNDS + 1)];
        for (w, chunk) in rk.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut rcon = 1u8;
        for i in 8..rk.len() {
            let mut t = rk[i - 1];
            if i % 8 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            } else if i % 8 == 4 {
                t = sub_word(t);
            }
            rk[i] = rk[i - 8] ^ t;
        }
        let mut cipher = Aes256Gcm {
            round_keys: rk,
            h_table: Box::new([0; 256]),
        };
        let h = cipher.encrypt_block(0);
        let table = &mut cipher.h_table;
        let mut bit = 0x80;
        let mut v = h;
        while bit > 0 {
            table[bit] = v;
            v = mul_x(v);
            bit >>= 1;
        }
        let mut high = 2;
        while high < 256 {
            for low in 1..high {
                table[high + low] = table[high] ^ table[low];
            }
            high <<= 1;
        }
        cipher
    }
}

impl Aes256Gcm {
    fn encrypt_block(&self, block: u128) -> u128 {
        let rk = &self.round_keys;
        let mut s = [
            (block >> 96) as u32 ^ rk[0],
            (block >> 64) as u32 ^ rk[1],
            (block >> 32) as u32 ^ rk[2],
            block as u32 ^ rk[3],
        ];
        for k in rk[4..4 * ROUNDS].chunks_exact(4) {
            let [a, b, c, d] = s;
            let col = |w0: u32, w1: u32, w2: u32, w3: u32, key: u32| {
                TE[0][(w0 >> 24) as usize]
                    ^ TE[1][((w1 >> 16) & 0xff) as usize]
                    ^ TE[2][((w2 >> 8) & 0xff) as usize]
                    ^ TE[3][(w3 & 0xff) as usize]
                    ^ key
            };
            s = [
                col(a, b, c, d, k[0]),
                col(b, c, d, a, k[1]),
                col(c, d, a, b, k[2]),
                col(d, a, b, c, k[3]),
            ];
        }
        let k = &rk[4 * ROUNDS..];
        let [a, b, c, d] = s;
        let last = |w0: u32, w1: u32, w2: u32, w3: u32, key: u32| {
            u32::from_be_bytes([
                SBOX[(w0 >> 24) as usize],
                SBOX[((w1 >> 16) & 0xff) as usize],
                SBOX[((w2 >> 8) & 0xff) as usize],
                SBOX[(w3 & 0xff) as usize],
            ]) ^ key
        };
        (u128::from(last(a, b, c, d, k[0])) << 96)
            | (u128::from(last(b, c, d, a, k[1])) << 64)
            | (u128::from(last(c, d, a, b, k[2])) << 32)
            | u128::from(last(d, a, b, c, k[3]))
    }

    /// `y · H`. Byte `j` of `y` contributes `h_table[byte] · x^(8j)`: the
    /// sixteen products are summed unreduced into 248 bits (`hi`, `lo`), then
    /// each of the fifteen overflow bytes is folded back with [`REDUCE`].
    /// Every lookup is independent of the others, unlike Horner's rule.
    fn mul_h(&self, y: u128) -> u128 {
        let bytes = y.to_be_bytes();
        let mut hi = self.h_table[usize::from(bytes[0])];
        let mut lo = 0u128;
        for (j, &byte) in bytes.iter().enumerate().skip(1) {
            let v = self.h_table[usize::from(byte)];
            hi ^= v >> (8 * j);
            lo ^= v << (128 - 8 * j);
        }
        // Byte `k` of `lo` holds the coefficients of x^(128+8k)..; times
        // x^128 it is REDUCE[byte], of degree <= 14, so shifted by 8k it
        // still ends below x^128 for every k <= 14.
        for (k, &byte) in lo.to_be_bytes().iter().enumerate().take(15) {
            hi ^= REDUCE[usize::from(byte)] >> (8 * k);
        }
        hi
    }

    fn ghash_update(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            y = self.mul_h(y ^ u128::from_be_bytes(block.try_into().expect("chunk of 16")));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            y = self.mul_h(y ^ u128::from_be_bytes(last));
        }
        y
    }

    fn tag(&self, j0: u128, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let y = self.ghash_update(0, aad);
        let y = self.ghash_update(y, ciphertext);
        let lengths =
            (u128::from(aad.len() as u64 * 8) << 64) | u128::from(ciphertext.len() as u64 * 8);
        let y = self.mul_h(y ^ lengths);
        (y ^ self.encrypt_block(j0)).to_be_bytes()
    }

    /// XORs `data` with the CTR keystream that starts after `j0`.
    fn ctr(&self, j0: u128, data: &mut [u8]) {
        let prefix = j0 & !0xffff_ffff;
        let mut counter = j0 as u32;
        for chunk in data.chunks_mut(16) {
            counter = counter.wrapping_add(1);
            let stream = self
                .encrypt_block(prefix | u128::from(counter))
                .to_be_bytes();
            for (d, s) in chunk.iter_mut().zip(stream) {
                *d ^= s;
            }
        }
    }
}

fn j0(nonce: &Nonce) -> u128 {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(&nonce.0);
    block[15] = 1;
    u128::from_be_bytes(block)
}

impl Aead for Aes256Gcm {
    fn encrypt(
        &self,
        nonce: impl Borrow<Nonce>,
        payload: Payload<'_, '_>,
    ) -> Result<Vec<u8>, Error> {
        let j0 = j0(nonce.borrow());
        let mut out = Vec::with_capacity(payload.msg.len() + 16);
        out.extend_from_slice(payload.msg);
        self.ctr(j0, &mut out);
        let tag = self.tag(j0, payload.aad, &out);
        out.extend_from_slice(&tag);
        Ok(out)
    }

    fn decrypt(
        &self,
        nonce: impl Borrow<Nonce>,
        payload: Payload<'_, '_>,
    ) -> Result<Vec<u8>, Error> {
        let j0 = j0(nonce.borrow());
        let split = payload.msg.len().checked_sub(16).ok_or(Error)?;
        let (ciphertext, tag) = payload.msg.split_at(split);
        let ours = self.tag(j0, payload.aad, ciphertext);
        let diff = ours.iter().zip(tag).fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff != 0 {
            return Err(Error);
        }
        let mut out = ciphertext.to_vec();
        self.ctr(j0, &mut out);
        Ok(out)
    }
}
