//! The one way storage picks a nonce, seals, tags and opens: a [`Sealer`].

use std::cell::Cell;

use crate::hash::{ct_eq, hmac_sign_parts};
use crate::{aead_open, aead_seal, Ciphertext, CryptoError, Key, Protection};

/// A key, a nonce prefix and a [`Protection`], fixed when it is made. Every
/// nonce is `prefix ‖ index`, the index little-endian in the bytes the
/// prefix leaves, and each index is sealed at most once, in increasing
/// order. Uniqueness holds within one `Sealer` only: two under one key and
/// one prefix share their nonces.
#[derive(Debug)]
pub struct Sealer {
    key: Key,
    /// The nonce of index 0: the prefix, then zeros.
    base: [u8; 12],
    prefix_len: usize,
    mode: Protection,
    /// The lowest index not yet sealed; `None` once every index is used.
    next: Cell<Option<u64>>,
}

impl Sealer {
    /// A sealer whose nonces begin with `prefix`: 4 to 11 bytes, or it
    /// does not compile.
    pub fn new<const N: usize>(key: Key, prefix: [u8; N], mode: Protection) -> Self {
        const { assert!(N >= 4 && N < 12, "a nonce prefix is 4 to 11 bytes") };
        let mut base = [0u8; 12];
        base[..N].copy_from_slice(&prefix);
        let next = Cell::new(Some(0));
        let prefix_len = N;
        Sealer {
            key,
            base,
            prefix_len,
            mode,
            next,
        }
    }

    /// The protection mode.
    pub fn mode(&self) -> Protection {
        self.mode
    }

    /// The nonce of `index`: the prefix, then as many of the index's
    /// little-endian bytes as fit. [`Sealer::seal`] refuses an index that
    /// does not fit.
    pub fn nonce(&self, index: u64) -> [u8; 12] {
        let mut nonce = self.base;
        let room = 12 - self.prefix_len;
        nonce[self.prefix_len..].copy_from_slice(&index.to_le_bytes()[..room]);
        nonce
    }

    /// Takes `index` for sealing: it must fit the nonce and lie above every
    /// index taken.
    fn claim(&self, index: u64) -> Result<[u8; 12], CryptoError> {
        let room = 8 * (12 - self.prefix_len) as u32;
        let fits = index.checked_shr(room).is_none_or(|high| high == 0);
        if !fits || self.next.get().is_none_or(|next| index < next) {
            return Err(CryptoError::NonceReuse);
        }
        self.next.set(index.checked_add(1));
        Ok(self.nonce(index))
    }

    /// Seals `plain` as `index`, with `aad`: its ciphertext under
    /// [`Protection::Full`], `None` where `plain` is stored as it is, and
    /// [`CryptoError::NonceReuse`] for an index at or below one already
    /// sealed or too wide for the nonce.
    pub fn seal(
        &self,
        index: u64,
        aad: &[u8],
        plain: &[u8],
    ) -> Result<Option<Ciphertext>, CryptoError> {
        let nonce = self.claim(index)?;
        Ok((self.mode == Protection::Full).then(|| aead_seal(&self.key, &nonce, aad, plain)))
    }

    /// [`Sealer::seal`] at the index after the last one sealed (0 first),
    /// with its nonce in front of the ciphertext, for a reader that cannot
    /// know the index.
    pub fn seal_framed(&self, aad: &[u8], plain: &[u8]) -> Result<Option<Ciphertext>, CryptoError> {
        let index = self.next.get().ok_or(CryptoError::NonceReuse)?;
        let sealed = self.seal(index, aad, plain)?;
        Ok(sealed.map(|ct| Ciphertext([&self.nonce(index)[..], ct.as_slice()].concat())))
    }

    /// Opens what [`Sealer::seal`] stored as `index` with `aad`: decrypted
    /// under [`Protection::Full`], as it is otherwise.
    pub fn open(&self, index: u64, aad: &[u8], stored: Vec<u8>) -> Result<Vec<u8>, CryptoError> {
        match self.mode {
            Protection::Full => aead_open(&self.key, &self.nonce(index), aad, &stored),
            Protection::AuthOnly | Protection::Plain => Ok(stored),
        }
    }

    /// Opens what [`Sealer::seal_framed`] stored with `aad`. The nonce in
    /// front must begin with this sealer's prefix.
    pub fn open_framed(&self, aad: &[u8], stored: Vec<u8>) -> Result<Vec<u8>, CryptoError> {
        if self.mode != Protection::Full {
            return Ok(stored);
        }
        let (nonce, sealed) = stored
            .split_first_chunk::<12>()
            .ok_or(CryptoError::Malformed)?;
        if nonce[..self.prefix_len] != self.base[..self.prefix_len] {
            return Err(CryptoError::AuthFailed);
        }
        aead_open(&self.key, nonce, aad, sealed)
    }

    /// An HMAC-SHA-256 over `parts`, concatenated; zeros under
    /// [`Protection::Plain`], which authenticates nothing.
    pub fn tag(&self, parts: &[&[u8]]) -> [u8; 32] {
        match self.mode {
            Protection::Full | Protection::AuthOnly => hmac_sign_parts(&self.key, parts).0,
            Protection::Plain => [0u8; 32],
        }
    }

    /// Checks `tag` against [`Sealer::tag`] of `parts` in constant time.
    pub fn check(&self, parts: &[&[u8]], tag: &[u8]) -> Result<(), CryptoError> {
        let valid = self.mode == Protection::Plain || ct_eq(&self.tag(parts), tag);
        valid.then_some(()).ok_or(CryptoError::AuthFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealer(prefix: [u8; 4]) -> Sealer {
        Sealer::new(Key::from_bytes([7; 32]), prefix, Protection::Full)
    }

    #[test]
    fn a_nonce_is_the_prefix_then_the_index_little_endian() {
        let s = sealer(*b"MVAL");
        let mut want = *b"MVAL\0\0\0\0\0\0\0\0";
        want[4..].copy_from_slice(&0x0102u64.to_le_bytes());
        assert_eq!(s.nonce(0x0102), want);
        // An 8-byte prefix leaves a 4-byte index, whose top value fits and
        // whose next does not.
        let table = Sealer::new(
            Key::from_bytes([7; 32]),
            9u64.to_le_bytes(),
            Protection::Full,
        );
        let mut meta = [0xFF; 12];
        meta[..8].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(table.nonce(u64::from(u32::MAX)), meta);
        assert!(table.seal(u64::from(u32::MAX), b"", b"x").is_ok());
        let past = u64::from(u32::MAX) + 1;
        let fresh = Sealer::new(
            Key::from_bytes([7; 32]),
            9u64.to_le_bytes(),
            Protection::Full,
        );
        assert_eq!(fresh.seal(past, b"", b"x"), Err(CryptoError::NonceReuse));
    }

    #[test]
    fn an_index_at_or_below_the_last_one_sealed_is_refused() {
        for mode in [Protection::Full, Protection::AuthOnly, Protection::Plain] {
            let s = Sealer::new(Key::from_bytes([7; 32]), *b"TEST", mode);
            assert!(s.seal(3, b"", b"a").is_ok(), "{mode:?}");
            assert_eq!(s.seal(3, b"", b"b"), Err(CryptoError::NonceReuse));
            assert_eq!(s.seal(1, b"", b"b"), Err(CryptoError::NonceReuse));
            assert!(s.seal(u64::MAX, b"", b"c").is_ok());
            // Nothing is left: neither an explicit nor a framed index.
            assert_eq!(s.seal(u64::MAX, b"", b"d"), Err(CryptoError::NonceReuse));
            assert_eq!(s.seal_framed(b"", b"d"), Err(CryptoError::NonceReuse));
        }
        // A framed seal takes the index after the last one sealed.
        let s = sealer(*b"MVAL");
        s.seal(4, b"", b"a").unwrap();
        let framed = s.seal_framed(b"", b"b").unwrap().unwrap();
        assert_eq!(framed.as_slice()[..12], s.nonce(5));
        assert_eq!(s.seal(5, b"", b"c"), Err(CryptoError::NonceReuse));
    }

    #[test]
    fn an_open_with_the_wrong_prefix_index_or_aad_fails() {
        let s = sealer(*b"AAAA");
        let ct = s.seal(2, b"aad", b"secret").unwrap().unwrap().into_vec();
        assert_eq!(s.open(2, b"aad", ct.clone()).unwrap(), b"secret");
        assert_eq!(s.open(3, b"aad", ct.clone()), Err(CryptoError::AuthFailed));
        assert_eq!(s.open(2, b"dda", ct.clone()), Err(CryptoError::AuthFailed));
        assert_eq!(
            sealer(*b"AAAB").open(2, b"aad", ct),
            Err(CryptoError::AuthFailed)
        );
        // Framed: the prefix in front must be this sealer's.
        let framed = s.seal_framed(b"k", b"value").unwrap().unwrap().into_vec();
        assert_eq!(s.open_framed(b"k", framed.clone()).unwrap(), b"value");
        assert_eq!(
            s.open_framed(b"j", framed.clone()),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(
            sealer(*b"AAAB").open_framed(b"k", framed.clone()),
            Err(CryptoError::AuthFailed)
        );
        let mut renumbered = framed;
        renumbered[4] ^= 1;
        assert_eq!(
            s.open_framed(b"k", renumbered),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(
            s.open_framed(b"k", vec![0; 11]),
            Err(CryptoError::Malformed)
        );
    }

    #[test]
    fn tag_and_clear_store_the_bytes_and_only_tag_authenticates() {
        let key = Key::from_bytes([7; 32]);
        let tagged = Sealer::new(key, *b"TTTT", Protection::AuthOnly);
        let clear = Sealer::new(key, *b"TTTT", Protection::Plain);
        for s in [&tagged, &clear] {
            assert_eq!(s.seal(0, b"", b"plain"), Ok(None));
            assert_eq!(s.seal_framed(b"", b"plain"), Ok(None));
            assert_eq!(s.open(0, b"", b"plain".to_vec()).unwrap(), b"plain");
            assert_eq!(s.open_framed(b"", b"plain".to_vec()).unwrap(), b"plain");
        }
        let tag = tagged.tag(&[b"a", b"bc"]);
        assert_eq!(tag, hmac_sign_parts(&key, &[b"abc"]).0);
        assert!(tagged.check(&[b"ab", b"c"], &tag).is_ok());
        assert_eq!(tagged.check(&[b"abd"], &tag), Err(CryptoError::AuthFailed));
        assert_eq!(clear.tag(&[b"abc"]), [0; 32]);
        assert!(clear.check(&[b"abd"], &tag).is_ok());
    }
}
