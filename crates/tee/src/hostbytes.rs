//! `HostBytes`: the typed currency of the enclave boundary.
//!
//! Treaty's placement invariant (§III of the paper) says untrusted host
//! memory may only ever hold ciphertext or bytes whose integrity is pinned
//! by a digest kept inside the enclave. This module turns that prose rule
//! into a type: [`crate::HostVault::store`] accepts only a [`HostBytes`],
//! and every constructor of `HostBytes` demands *evidence* that the bytes
//! are safe to expose:
//!
//! * [`HostBytes::from_ciphertext`] — a [`treaty_crypto::Ciphertext`],
//!   which only [`treaty_crypto::aead_seal`] can mint (storage reaches it
//!   through a [`treaty_crypto::Sealer`]);
//! * [`HostBytes::from_envelope`] — a sealed wire message (cleartext wire
//!   modes are recorded as declassified-by-profile);
//! * [`HostBytes::from_sealed`] — an enclave-sealed blob;
//! * [`HostBytes::integrity_pinned`] — plaintext whose SHA-256 digest is
//!   currently registered with the enclave's integrity map, so tampering
//!   is detectable on read;
//! * framing helpers, in place ([`HostBytes::push_tag`],
//!   [`HostBytes::push_u32`]/[`HostBytes::push_u64`]), for self-describing
//!   non-secret structure (counters, lengths, MACs);
//! * [`HostBytes::declassified`] — the one auditable escape hatch. Its
//!   `reason` argument is a mandatory `&'static str`, so
//!   `git grep 'declassified('` lists every deliberate plaintext-to-host
//!   flow together with its justification.
//!
//! A deliberate plaintext store no longer typechecks — see the
//! `compile_fail` doctest on [`crate::HostVault::store`].

use std::fmt;

use treaty_crypto::{sha256, Ciphertext, EnvelopedMessage, WireCrypto};

use crate::enclave::Enclave;
use crate::seal::SealedBlob;
use crate::TeeError;

/// How a [`HostBytes`] buffer earned the right to leave the enclave.
///
/// When buffers are concatenated the *weakest* provenance wins (see
/// [`HostBytes::append`]), so a composite record is only as trustworthy as
/// its most exposed part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Pure framing: lengths, counters, nonces, MAC tags — self-describing
    /// non-secret structure.
    Framing,
    /// AEAD output from `treaty-crypto` (confidentiality + integrity).
    Ciphertext,
    /// An enclave-sealed blob (measurement-bound AEAD).
    Sealed,
    /// Plaintext whose SHA-256 digest is registered in the enclave's
    /// integrity map (integrity without confidentiality — the "w/o Enc"
    /// profiles).
    IntegrityPinned,
    /// Explicitly declassified plaintext; carries an audit reason.
    Declassified,
}

impl Provenance {
    /// Exposure rank used when combining buffers: higher = more exposed.
    fn rank(self) -> u8 {
        match self {
            Provenance::Framing => 0,
            Provenance::Ciphertext => 1,
            Provenance::Sealed => 2,
            Provenance::IntegrityPinned => 3,
            Provenance::Declassified => 4,
        }
    }
}

/// A byte buffer proven safe for untrusted host memory.
///
/// See the [module docs](self) for the constructor catalogue. The raw
/// bytes are reachable via [`HostBytes::as_slice`]/[`HostBytes::into_vec`]
/// — reading host memory is always allowed; it is *placing plaintext
/// there* that the type forbids.
#[derive(Clone, PartialEq, Eq)]
pub struct HostBytes {
    bytes: Vec<u8>,
    provenance: Provenance,
    reason: Option<&'static str>,
}

impl fmt::Debug for HostBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the bytes: Debug output lands in logs, and logs are
        // untrusted-adjacent.
        let mut d = f.debug_struct("HostBytes");
        d.field("len", &self.bytes.len())
            .field("provenance", &self.provenance);
        if let Some(reason) = self.reason {
            d.field("reason", &reason);
        }
        d.finish()
    }
}

impl HostBytes {
    /// An empty buffer, for incremental [`HostBytes::append`] assembly.
    pub fn empty() -> Self {
        HostBytes {
            bytes: Vec::new(),
            provenance: Provenance::Framing,
            reason: None,
        }
    }

    /// Wraps AEAD output. The [`Ciphertext`] proof can only come from
    /// [`treaty_crypto::aead_seal`].
    pub fn from_ciphertext(ct: Ciphertext) -> Self {
        HostBytes {
            bytes: ct.into_vec(),
            provenance: Provenance::Ciphertext,
            reason: None,
        }
    }

    /// Wraps a sealed wire message for host-resident message buffers.
    ///
    /// [`WireCrypto::Full`] bodies are AEAD ciphertext. `Plain` and
    /// `AuthOnly` bodies are cleartext *because the configured security
    /// profile says so* — those are recorded as declassified-by-profile,
    /// which keeps the baseline/"w/o Enc" ablations honest in vault dumps.
    pub fn from_envelope(msg: EnvelopedMessage) -> Self {
        let provenance = match msg.crypto() {
            WireCrypto::Full => Provenance::Ciphertext,
            WireCrypto::Plain | WireCrypto::AuthOnly => Provenance::Declassified,
        };
        let reason = match provenance {
            Provenance::Declassified => {
                Some("wire profile sends cleartext bodies (Plain/AuthOnly)")
            }
            _ => None,
        };
        HostBytes {
            bytes: msg.into_vec(),
            provenance,
            reason,
        }
    }

    /// Wraps an enclave-sealed blob as `nonce(12B) ‖ ciphertext`.
    pub fn from_sealed(blob: &SealedBlob) -> Self {
        let mut bytes = Vec::with_capacity(12 + blob.ciphertext().len());
        bytes.extend_from_slice(blob.nonce());
        bytes.extend_from_slice(blob.ciphertext());
        HostBytes {
            bytes,
            provenance: Provenance::Sealed,
            reason: None,
        }
    }

    /// Wraps plaintext whose SHA-256 digest is registered with `enclave`'s
    /// integrity map ([`Enclave::pin_integrity`]): host tampering is
    /// detectable on the read path, which is exactly the guarantee the
    /// "w/o Enc" profiles provide.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NotPinned`] if the digest is not currently
    /// pinned — pin first, then construct.
    pub fn integrity_pinned(bytes: Vec<u8>, enclave: &Enclave) -> Result<Self, TeeError> {
        let digest = sha256(&bytes);
        if !enclave.is_pinned(&digest) {
            return Err(TeeError::NotPinned);
        }
        Ok(HostBytes {
            bytes,
            provenance: Provenance::IntegrityPinned,
            reason: None,
        })
    }

    /// The audited escape hatch: plaintext the caller *asserts* is fine to
    /// expose. `reason` is a mandatory audit string, written at the call
    /// site and kept with the bytes ([`HostBytes::declass_reason`]), so
    /// `git grep 'declassified('` is the complete audit.
    pub fn declassified(bytes: Vec<u8>, reason: &'static str) -> Self {
        HostBytes {
            bytes,
            provenance: Provenance::Declassified,
            reason: Some(reason),
        }
    }

    /// Reserves room for `additional` more bytes, so a record assembled
    /// in place grows its buffer once.
    pub fn reserve(&mut self, additional: usize) {
        self.bytes.reserve(additional);
    }

    /// Appends a little-endian public `u64` (counters, file ids).
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian public `u32` (lengths, block numbers).
    pub fn push_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a 32-byte MAC/digest tag. Tags authenticate, they do not
    /// reveal.
    pub fn push_tag(&mut self, tag: [u8; 32]) {
        self.bytes.extend_from_slice(&tag);
    }

    /// Appends [`HostBytes::declassified`] bytes in place, copied once from
    /// the caller's buffer; the same audit rule applies.
    pub fn append_declassified(&mut self, bytes: &[u8], reason: &'static str) {
        self.bytes.extend_from_slice(bytes);
        self.provenance = Provenance::Declassified;
        if self.reason.is_none() {
            self.reason = Some(reason);
        }
    }

    /// Appends `part`, keeping the weakest (most exposed) provenance and
    /// the first declassification reason.
    pub fn append(&mut self, part: HostBytes) {
        self.bytes.extend_from_slice(&part.bytes);
        if part.provenance.rank() > self.provenance.rank() {
            self.provenance = part.provenance;
        }
        if self.reason.is_none() {
            self.reason = part.reason;
        }
    }

    /// Concatenates parts into one record (e.g. `nonce ‖ ciphertext`).
    pub fn concat<I: IntoIterator<Item = HostBytes>>(parts: I) -> Self {
        let mut out = HostBytes::empty();
        for part in parts {
            out.append(part);
        }
        out
    }

    /// Borrows the raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the wrapper, yielding the raw bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// How these bytes earned host residency.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// The declassification audit reason, if any.
    pub fn declass_reason(&self) -> Option<&'static str> {
        self.reason
    }

    // ---- adversary interface (used by the security test suite) ----

    /// XORs `mask` into the byte at `offset`, simulating in-flight or
    /// in-host tampering. Out-of-range offsets are ignored.
    pub fn tamper(&mut self, offset: usize, mask: u8) {
        if let Some(b) = self.bytes.get_mut(offset) {
            *b ^= mask;
        }
    }
}

impl AsRef<[u8]> for HostBytes {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use treaty_crypto::aead_seal;
    use treaty_crypto::Key;
    use treaty_sim::TeeMode;

    #[test]
    fn ciphertext_provenance() {
        let key = Key::from_bytes([1u8; 32]);
        let hb = HostBytes::from_ciphertext(aead_seal(&key, &[0u8; 12], b"", b"secret"));
        assert_eq!(hb.provenance(), Provenance::Ciphertext);
        assert_eq!(hb.len(), 6 + 16);
    }

    #[test]
    fn integrity_pin_requires_registration() {
        let e = Enclave::new(TeeMode::Native);
        let bytes = b"auth-only value".to_vec();
        assert_eq!(
            HostBytes::integrity_pinned(bytes.clone(), &e),
            Err(TeeError::NotPinned)
        );
        let digest = sha256(&bytes);
        e.pin_integrity(digest);
        let hb = HostBytes::integrity_pinned(bytes, &e).unwrap();
        assert_eq!(hb.provenance(), Provenance::IntegrityPinned);
        e.unpin_integrity(&digest);
        assert!(!e.is_pinned(&digest));
    }

    #[test]
    fn concat_keeps_weakest_provenance() {
        let key = Key::from_bytes([1u8; 32]);
        let ct = HostBytes::from_ciphertext(aead_seal(&key, &[0u8; 12], b"", b"v"));
        let mut header = HostBytes::empty();
        header.push_u64(0);
        header.push_u32(0);
        let record = HostBytes::concat([header, ct.clone()]);
        assert_eq!(record.provenance(), Provenance::Ciphertext);
        assert_eq!(record.len(), 12 + ct.len());
        let declass = HostBytes::declassified(vec![0xAA], "provenance rank test");
        let mixed = HostBytes::concat([record, declass]);
        assert_eq!(mixed.provenance(), Provenance::Declassified);
        assert_eq!(mixed.declass_reason(), Some("provenance rank test"));
    }

    #[test]
    fn in_place_appends_frame_and_keep_the_weakest_provenance() {
        let key = Key::from_bytes([1u8; 32]);
        let ct = HostBytes::from_ciphertext(aead_seal(&key, &[0u8; 12], b"", b"v"));
        let mut framed = HostBytes::empty();
        framed.push_u64(7);
        framed.push_u32(9);
        framed.push_tag([3u8; 32]);
        assert_eq!(framed.provenance(), Provenance::Framing);
        let mut want = 7u64.to_le_bytes().to_vec();
        want.extend_from_slice(&9u32.to_le_bytes());
        want.extend_from_slice(&[3u8; 32]);
        assert_eq!(framed.as_slice(), want.as_slice());
        framed.append(ct.clone());
        assert_eq!(framed.provenance(), Provenance::Ciphertext);
        assert!(framed.as_slice().ends_with(ct.as_slice()));
        framed.append_declassified(b"clear", "in-place test");
        assert_eq!(framed.provenance(), Provenance::Declassified);
        assert_eq!(framed.declass_reason(), Some("in-place test"));
        assert!(framed.as_slice().ends_with(b"clear"));
    }

    #[test]
    fn tamper_flips_exactly_one_byte() {
        let mut hb = HostBytes::declassified(vec![0u8; 4], "tamper test");
        hb.tamper(2, 0x55);
        hb.tamper(100, 0xFF); // out of range: ignored
        assert_eq!(hb.as_slice(), &[0, 0, 0x55, 0]);
    }

    #[test]
    fn debug_redacts_bytes() {
        let hb = HostBytes::declassified(b"do-not-print".to_vec(), "debug test");
        let s = format!("{hb:?}");
        assert!(!s.contains("do-not-print"));
        assert!(s.contains("Declassified"));
    }
}
