//! The one way storage picks a nonce, seals, tags, opens and digests: a
//! [`Sealer`], which prices what it runs.

use std::cell::Cell;
use std::rc::Rc;

use crate::hash::{ct_eq, hmac_sign_parts, sha256, Digest32};
use crate::ledger::{self, Primitive};
use crate::{aead_open, aead_seal, Ciphertext, CryptoError, Key, Protection};

/// What AES-GCM appends to a ciphertext.
const GCM_TAG_LEN: usize = 16;

/// Told the work of each [`Sealer`] call as the call runs it: `bytes` of
/// plaintext through `primitive`. The store's meter charges virtual time.
pub trait Meter: std::fmt::Debug {
    /// Prices one call.
    fn price(&self, primitive: Primitive, bytes: usize);
}

/// A key, a nonce prefix, a [`Protection`] and a [`Meter`], fixed when it
/// is made. Every nonce is `prefix ‖ index`, the index little-endian in
/// the bytes the prefix leaves, and each index is sealed at most once, in
/// increasing order. Uniqueness holds within one `Sealer` only: two under
/// one key and one prefix share their nonces.
///
/// Each call that runs a primitive prices it, in the arm of its mode that
/// runs it, by the plaintext it protects; a mode that runs nothing prices
/// nothing. What else the primitive is given (AAD, a nonce, a counter, a
/// log's name, the GCM tag) is framing and is not priced.
#[derive(Debug)]
pub struct Sealer {
    key: Key,
    /// The nonce of index 0: the prefix, then zeros.
    base: [u8; 12],
    prefix_len: usize,
    mode: Protection,
    meter: Rc<dyn Meter>,
    /// The lowest index not yet sealed; `None` once every index is used.
    next: Cell<Option<u64>>,
}

impl Sealer {
    /// A sealer whose nonces begin with `prefix`, 4 to 11 bytes (or it
    /// does not compile), and whose work `meter` is told.
    pub fn new<const N: usize>(
        key: Key,
        prefix: [u8; N],
        mode: Protection,
        meter: Rc<dyn Meter>,
    ) -> Self {
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
            meter,
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

    /// Prices one call: `bytes` of plaintext through `primitive`, which
    /// is given `framing` bytes more.
    fn charge(&self, primitive: Primitive, bytes: usize, framing: usize) {
        ledger::priced(primitive, bytes, framing);
        self.meter.price(primitive, bytes);
    }

    /// Opens `sealed`, a ciphertext and its GCM tag, under `nonce`.
    fn decrypt(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let plain = sealed.len().saturating_sub(GCM_TAG_LEN);
        self.charge(Primitive::Aes, plain, aad.len() + sealed.len() - plain);
        aead_open(&self.key, nonce, aad, sealed)
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
        Ok(match self.mode {
            Protection::Full => {
                self.charge(Primitive::Aes, plain.len(), aad.len());
                Some(aead_seal(&self.key, &nonce, aad, plain))
            }
            Protection::AuthOnly | Protection::Plain => None,
        })
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
            Protection::Full => self.decrypt(&self.nonce(index), aad, &stored),
            Protection::AuthOnly | Protection::Plain => Ok(stored),
        }
    }

    /// Opens what [`Sealer::seal_framed`] stored with `aad`. The nonce in
    /// front must begin with this sealer's prefix.
    pub fn open_framed(&self, aad: &[u8], stored: Vec<u8>) -> Result<Vec<u8>, CryptoError> {
        match self.mode {
            Protection::Full => {
                let (nonce, sealed) = stored
                    .split_first_chunk::<12>()
                    .ok_or(CryptoError::Malformed)?;
                if nonce[..self.prefix_len] != self.base[..self.prefix_len] {
                    return Err(CryptoError::AuthFailed);
                }
                self.decrypt(nonce, aad, sealed)
            }
            Protection::AuthOnly | Protection::Plain => Ok(stored),
        }
    }

    /// An HMAC-SHA-256 over `parts`, concatenated; zeros under
    /// [`Protection::Plain`], which authenticates nothing. The last part
    /// is the stored payload and the parts before it are framing. Under
    /// [`Protection::Full`] the payload is what [`Sealer::seal`] made, so
    /// its GCM tag is framing too.
    pub fn tag(&self, parts: &[&[u8]]) -> [u8; 32] {
        match self.mode {
            Protection::Full | Protection::AuthOnly => {
                let all: usize = parts.iter().map(|p| p.len()).sum();
                let payload = parts.last().map_or(0, |p| p.len());
                let plain = match self.mode {
                    Protection::Full => payload.saturating_sub(GCM_TAG_LEN),
                    _ => payload,
                };
                self.charge(Primitive::Sha, plain, all - plain);
                hmac_sign_parts(&self.key, parts).0
            }
            Protection::Plain => [0u8; 32],
        }
    }

    /// Checks `tag` against [`Sealer::tag`] of `parts` in constant time.
    pub fn check(&self, parts: &[&[u8]], tag: &[u8]) -> Result<(), CryptoError> {
        match self.mode {
            Protection::Full | Protection::AuthOnly => ct_eq(&self.tag(parts), tag)
                .then_some(())
                .ok_or(CryptoError::AuthFailed),
            Protection::Plain => Ok(()),
        }
    }

    /// The SHA-256 of `plain`, for the enclave to hold against a value it
    /// keeps in host memory; zeros under [`Protection::Plain`], which
    /// checks nothing.
    pub fn digest(&self, plain: &[u8]) -> Digest32 {
        match self.mode {
            Protection::Full | Protection::AuthOnly => {
                self.charge(Primitive::Sha, plain.len(), 0);
                sha256(plain)
            }
            Protection::Plain => Digest32::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A meter that writes down what it is told.
    #[derive(Debug, Default)]
    struct Tape(RefCell<Vec<(Primitive, usize)>>);

    impl Meter for Tape {
        fn price(&self, primitive: Primitive, bytes: usize) {
            self.0.borrow_mut().push((primitive, bytes));
        }
    }

    impl Tape {
        fn take(&self) -> Vec<(Primitive, usize)> {
            self.0.take()
        }
    }

    fn metered<const N: usize>(key: Key, prefix: [u8; N], mode: Protection) -> Sealer {
        Sealer::new(key, prefix, mode, Rc::new(Tape::default()))
    }

    fn sealer(prefix: [u8; 4]) -> Sealer {
        metered(Key::from_bytes([7; 32]), prefix, Protection::Full)
    }

    #[test]
    fn a_nonce_is_the_prefix_then_the_index_little_endian() {
        let s = sealer(*b"MVAL");
        let mut want = *b"MVAL\0\0\0\0\0\0\0\0";
        want[4..].copy_from_slice(&0x0102u64.to_le_bytes());
        assert_eq!(s.nonce(0x0102), want);
        // An 8-byte prefix leaves a 4-byte index, whose top value fits and
        // whose next does not.
        let table = metered(
            Key::from_bytes([7; 32]),
            9u64.to_le_bytes(),
            Protection::Full,
        );
        let mut meta = [0xFF; 12];
        meta[..8].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(table.nonce(u64::from(u32::MAX)), meta);
        assert!(table.seal(u64::from(u32::MAX), b"", b"x").is_ok());
        let past = u64::from(u32::MAX) + 1;
        let fresh = metered(
            Key::from_bytes([7; 32]),
            9u64.to_le_bytes(),
            Protection::Full,
        );
        assert_eq!(fresh.seal(past, b"", b"x"), Err(CryptoError::NonceReuse));
    }

    #[test]
    fn an_index_at_or_below_the_last_one_sealed_is_refused() {
        for mode in [Protection::Full, Protection::AuthOnly, Protection::Plain] {
            let s = metered(Key::from_bytes([7; 32]), *b"TEST", mode);
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
        let tagged = metered(key, *b"TTTT", Protection::AuthOnly);
        let clear = metered(key, *b"TTTT", Protection::Plain);
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

    #[test]
    fn each_call_tells_the_meter_the_work_it_runs() {
        use Primitive::{Aes, Sha};
        let (aad, plain) = (b"key".as_slice(), b"a value".as_slice());
        let n = plain.len();
        for mode in [Protection::Full, Protection::AuthOnly, Protection::Plain] {
            let tape = Rc::new(Tape::default());
            let s = Sealer::new(Key::from_bytes([7; 32]), *b"TEST", mode, tape.clone());
            let before = ledger::read();
            let mut told = Vec::new();
            let stored = s.seal(0, aad, plain).unwrap();
            let stored = stored.map_or(plain.to_vec(), Ciphertext::into_vec);
            told.push(("seal", tape.take()));
            let framed = s.seal_framed(aad, plain).unwrap();
            let framed = framed.map_or(plain.to_vec(), Ciphertext::into_vec);
            told.push(("seal_framed", tape.take()));
            assert_eq!(s.open(0, aad, stored.clone()).unwrap(), plain);
            told.push(("open", tape.take()));
            assert_eq!(s.open_framed(aad, framed).unwrap(), plain);
            told.push(("open_framed", tape.take()));
            // A log record's tag: framing, then the stored payload.
            let tag = s.tag(&[aad, &stored]);
            told.push(("tag", tape.take()));
            s.check(&[aad, &stored], &tag).unwrap();
            told.push(("check", tape.take()));
            let digest = s.digest(plain);
            told.push(("digest", tape.take()));

            let (aes, sha, none) = (vec![(Aes, n)], vec![(Sha, n)], vec![]);
            let want = match mode {
                Protection::Full => [&aes, &aes, &aes, &aes, &sha, &sha, &sha],
                Protection::AuthOnly => [&none, &none, &none, &none, &sha, &sha, &sha],
                Protection::Plain => [&none; 7],
            };
            for ((call, got), want) in told.iter().zip(want) {
                assert_eq!(got, want, "{mode:?} {call}");
            }
            assert_eq!(digest.0 == [0; 32], mode == Protection::Plain, "{mode:?}");

            // Every primitive a call ran, it priced: the plaintext, and
            // the rest of what it gave the primitive as framing.
            let l = ledger::read().since(&before);
            for p in Primitive::ALL {
                let (ran, priced) = (l.ran(p), l.priced(p));
                assert_eq!(ran.calls, priced.calls, "{mode:?} {p:?}");
                assert_eq!(ran.bytes, priced.bytes + l.framing(p), "{mode:?} {p:?}");
            }
            // Seal: the AAD; open: the AAD and the GCM tag; tag and check:
            // the AAD part and, under Full, the GCM tag in the payload.
            let framing = match mode {
                Protection::Full => (
                    4 * aad.len() + 2 * GCM_TAG_LEN,
                    2 * (aad.len() + GCM_TAG_LEN),
                ),
                Protection::AuthOnly => (0, 2 * aad.len()),
                Protection::Plain => (0, 0),
            };
            assert_eq!(
                (l.framing(Aes), l.framing(Sha)),
                (framing.0 as u64, framing.1 as u64)
            );
        }
    }
}
