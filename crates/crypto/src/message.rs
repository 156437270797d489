//! The Treaty secure network message format (§VII-A).
//!
//! Wire layout, exactly as in the paper:
//!
//! ```text
//! ┌────────┬───────┬────────────────────┬──────────┬─────────┐
//! │ IV 12B │ pad 4B│ Tx metadata 80B    │ Tx data  │ MAC 16B │
//! └────────┴───────┴────────────────────┴──────────┴─────────┘
//!   ▲        ▲        (encrypted together with data in Full mode)
//!   │        └ 4 bytes keep the body 16-byte aligned; byte 0 carries the
//!   │          crypto mode so a downgrade is detected at decode time.
//!   └ sender id 4B ‖ counter 8B ([`crate::keys::nonce`]): names the
//!     sending endpoint, authenticated with the rest of the header.
//! ```
//!
//! The metadata block, by byte offset:
//!
//! ```text
//!  0..8   node id       coordinator (or client) the message speaks for
//!  8..16  tx id         monotonically incremented at the coordinator
//! 16..24  op id         the message's number within its transaction
//! 24      kind          [`MsgKind`]
//! 25..33  stamp.seq     the request's number; a response echoes it
//! 33..41  stamp.floor   the sender's floor; zero marks a response
//! 41      stamp.req     the request code; a response echoes it
//! 42..80  zero
//! ```
//!
//! The [`Stamp`] is what gives Treaty at-most-once execution over an
//! adversarial network: every endpoint numbers its requests and a
//! receiver keeps one floor per sender (`treaty_net`'s `rpc` module header,
//! "Replay protection"). Its request code is the only one there is: the
//! receiver picks the handler and the replay rule by it, so nothing it
//! acts on lies outside the seal.

use crate::hash::{ct_eq, hmac_sign};
use crate::keys::{nonce_sender, Key};
use crate::{aead_open, aead_seal, CryptoError, Protection};

/// Size of the initialization vector.
pub const IV_LEN: usize = 12;
/// Size of the alignment/flag pad.
pub const PAD_LEN: usize = 4;
/// Size of the fixed metadata block.
pub const META_LEN: usize = 80;
/// Size of the trailing MAC.
pub const MAC_LEN: usize = 16;
/// Total framing overhead added to every payload.
pub const MESSAGE_OVERHEAD: usize = IV_LEN + PAD_LEN + META_LEN + MAC_LEN;

/// A metadata byte no code reads: a message's one name is the request code
/// in its [`Stamp`], and every sender writes `Data` ([`TxMeta::new`]). It
/// stays because the benchmark's probes build metadata blocks by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Read a key inside a transaction.
    TxnGet = 1,
    /// Buffer a write inside a transaction.
    TxnPut = 2,
    /// 2PC phase one.
    TxnPrepare = 3,
    /// 2PC phase two, commit.
    TxnCommit = 4,
    /// 2PC phase two, abort.
    TxnAbort = 5,
    /// Positive acknowledgement / reply.
    Ack = 6,
    /// Negative acknowledgement.
    Nack = 7,
    /// Trusted counter protocol traffic.
    Counter = 8,
    /// Attestation / configuration traffic.
    Attest = 9,
    /// Recovery: ask a coordinator for a transaction's outcome.
    QueryDecision = 10,
    /// Benchmark / application payload.
    Data = 11,
}

impl MsgKind {
    fn from_u8(v: u8) -> Result<Self, CryptoError> {
        Ok(match v {
            1 => MsgKind::TxnGet,
            2 => MsgKind::TxnPut,
            3 => MsgKind::TxnPrepare,
            4 => MsgKind::TxnCommit,
            5 => MsgKind::TxnAbort,
            6 => MsgKind::Ack,
            7 => MsgKind::Nack,
            8 => MsgKind::Counter,
            9 => MsgKind::Attest,
            10 => MsgKind::QueryDecision,
            11 => MsgKind::Data,
            _ => return Err(CryptoError::Malformed),
        })
    }
}

/// The replay stamp sealed into every message's metadata block, bytes
/// 25..42.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// A request's number, drawn from its sender's one counter. A response
    /// carries the number of the request it answers.
    pub seq: u64,
    /// The lowest number the sender still awaits a reply for or has not
    /// yet put on the wire. Zero in a response: a request's floor is at
    /// least its sender's boot epoch, which is at least one.
    pub floor: u64,
    /// The request code, which names the payload type and the handler. A
    /// response carries the code of the request it answers.
    pub req: u8,
}

const STAMP_AT: usize = 25;

/// The 80-byte transaction metadata block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxMeta {
    /// Coordinator node id (8 B on the wire).
    pub node_id: u64,
    /// Transaction id, monotonically incremented at the coordinator.
    pub tx_id: u64,
    /// The message's number within its transaction, from 1. A coordinator
    /// reads it on a commit for a transaction it holds no state for: only
    /// a commit numbered 1 was the transaction's first message.
    pub op_id: u64,
    /// Read by no code; see [`MsgKind`].
    pub kind: MsgKind,
}

impl TxMeta {
    /// A metadata block of kind [`MsgKind::Data`], as every sender writes.
    pub fn new(node_id: u64, tx_id: u64, op_id: u64) -> Self {
        TxMeta {
            node_id,
            tx_id,
            op_id,
            kind: MsgKind::Data,
        }
    }

    /// Serializes into the fixed 80-byte wire block.
    pub fn encode(&self) -> [u8; META_LEN] {
        let mut buf = [0u8; META_LEN];
        buf[0..8].copy_from_slice(&self.node_id.to_le_bytes());
        buf[8..16].copy_from_slice(&self.tx_id.to_le_bytes());
        buf[16..24].copy_from_slice(&self.op_id.to_le_bytes());
        buf[24] = self.kind as u8;
        buf
    }

    /// Parses the fixed 80-byte wire block.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] for unknown message kinds.
    pub fn decode(buf: &[u8; META_LEN]) -> Result<Self, CryptoError> {
        Ok(TxMeta {
            node_id: le_u64(buf, 0),
            tx_id: le_u64(buf, 8),
            op_id: le_u64(buf, 16),
            kind: MsgKind::from_u8(buf[24])?,
        })
    }
}

/// The little-endian `u64` at `at` in a metadata block.
fn le_u64(block: &[u8; META_LEN], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| block[at + i]))
}

/// An opened message: who sent it, its metadata, its stamp and its data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opened {
    /// The sending endpoint, as its IV names it. Under `Plain` nothing is
    /// authenticated, this included.
    pub sender: u32,
    /// The metadata block.
    pub meta: TxMeta,
    /// The replay stamp.
    pub stamp: Stamp,
    /// The transaction data.
    pub payload: Vec<u8>,
}

/// Encoder/decoder for Treaty's secure messages.
///
/// Stateless; callers supply the key and a unique nonce per message,
/// built by [`crate::keys::nonce`].
#[derive(Debug, Clone, Copy)]
pub struct SecureEnvelope {
    crypto: Protection,
}

impl SecureEnvelope {
    /// Creates an envelope codec for the given protection level.
    pub fn new(crypto: Protection) -> Self {
        SecureEnvelope { crypto }
    }

    /// The protection level this codec applies.
    pub fn crypto(&self) -> Protection {
        self.crypto
    }

    /// Number of wire bytes for a payload of `len` bytes.
    pub fn wire_len(&self, len: usize) -> usize {
        MESSAGE_OVERHEAD + len
    }

    /// Seals `meta` and `payload` into a wire message with a zero stamp.
    pub fn seal(
        &self,
        key: &Key,
        iv: [u8; IV_LEN],
        meta: &TxMeta,
        payload: &[u8],
    ) -> EnvelopedMessage {
        self.seal_stamped(key, iv, meta, Stamp::default(), payload)
    }

    /// Seals `meta`, `stamp` and `payload` into a wire message.
    ///
    /// The result carries the protection mode it was produced under, so
    /// boundary types downstream (`treaty-tee`'s `HostBytes`) can decide
    /// whether the bytes count as ciphertext or as a deliberate cleartext
    /// profile choice.
    pub fn seal_stamped(
        &self,
        key: &Key,
        iv: [u8; IV_LEN],
        meta: &TxMeta,
        stamp: Stamp,
        payload: &[u8],
    ) -> EnvelopedMessage {
        let mut block = meta.encode();
        block[STAMP_AT..STAMP_AT + 8].copy_from_slice(&stamp.seq.to_le_bytes());
        block[STAMP_AT + 8..STAMP_AT + 16].copy_from_slice(&stamp.floor.to_le_bytes());
        block[STAMP_AT + 16] = stamp.req;
        let mut body = Vec::with_capacity(META_LEN + payload.len());
        body.extend_from_slice(&block);
        body.extend_from_slice(payload);

        // IV, then the mode byte and its pad. Even `Plain`, which protects
        // nothing, names the sender.
        let mut header = [0u8; IV_LEN + PAD_LEN];
        header[..IV_LEN].copy_from_slice(&iv);
        header[IV_LEN] = self.crypto as u8;
        let mut out = Vec::with_capacity(MESSAGE_OVERHEAD + payload.len());
        out.extend_from_slice(&header);
        match self.crypto {
            Protection::Plain => {
                out.extend_from_slice(&body);
                out.extend_from_slice(&[0u8; MAC_LEN]);
            }
            Protection::AuthOnly => {
                out.extend_from_slice(&body);
                let tag = hmac_sign(key, &out);
                out.extend_from_slice(&tag.0[..MAC_LEN]);
            }
            Protection::Full => {
                // AAD covers IV + pad so flipping either breaks the tag.
                let ct_and_tag = aead_seal(key, &iv, &header, &body).into_vec();
                let (ct, tag) = ct_and_tag.split_at(ct_and_tag.len() - MAC_LEN);
                out.extend_from_slice(ct);
                out.extend_from_slice(tag);
            }
        }
        EnvelopedMessage {
            bytes: out,
            crypto: self.crypto,
        }
    }

    /// Opens a wire message, returning the metadata and payload.
    ///
    /// # Errors
    ///
    /// As [`SecureEnvelope::open_stamped`].
    pub fn open(&self, key: &Key, wire: &[u8]) -> Result<(TxMeta, Vec<u8>), CryptoError> {
        self.open_stamped(key, wire).map(|m| (m.meta, m.payload))
    }

    /// Opens a wire message, returning its sender, metadata, stamp and
    /// payload.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::Malformed`] — too short, or the mode byte does not
    ///   match this codec (downgrade attempt).
    /// * [`CryptoError::AuthFailed`] — MAC/tag verification failed.
    pub fn open_stamped(&self, key: &Key, wire: &[u8]) -> Result<Opened, CryptoError> {
        if wire.len() < MESSAGE_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        if wire[IV_LEN] != self.crypto as u8 {
            return Err(CryptoError::Malformed);
        }
        let iv: [u8; IV_LEN] = wire[..IV_LEN]
            .try_into()
            .map_err(|_| CryptoError::Malformed)?;
        let body_and_mac = &wire[IV_LEN + PAD_LEN..];
        let (body, mac) = body_and_mac.split_at(body_and_mac.len() - MAC_LEN);

        let plain_body: Vec<u8> = match self.crypto {
            Protection::Plain => body.to_vec(),
            Protection::AuthOnly => {
                // The network adversary sees how long a refusal takes, so
                // the truncated tag is compared in constant time.
                let tag = hmac_sign(key, &wire[..wire.len() - MAC_LEN]);
                if !ct_eq(&tag.0[..MAC_LEN], mac) {
                    return Err(CryptoError::AuthFailed);
                }
                body.to_vec()
            }
            Protection::Full => {
                let aad = &wire[..IV_LEN + PAD_LEN];
                let mut ct_and_tag = Vec::with_capacity(body.len() + MAC_LEN);
                ct_and_tag.extend_from_slice(body);
                ct_and_tag.extend_from_slice(mac);
                aead_open(key, &iv, aad, &ct_and_tag)?
            }
        };

        let Some((block, payload)) = plain_body.split_first_chunk::<META_LEN>() else {
            return Err(CryptoError::Malformed);
        };
        Ok(Opened {
            sender: nonce_sender(&iv),
            meta: TxMeta::decode(block)?,
            stamp: Stamp {
                seq: le_u64(block, STAMP_AT),
                floor: le_u64(block, STAMP_AT + 8),
                req: block[STAMP_AT + 16],
            },
            payload: payload.to_vec(),
        })
    }
}

/// A sealed wire message: the framed bytes plus the [`Protection`] mode
/// that produced them.
///
/// Like [`crate::Ciphertext`], this is a provenance-carrying type: the only
/// constructor is [`SecureEnvelope::seal`], so holding one proves the bytes
/// went through the §VII-A message format. Under [`Protection::Full`] the
/// body is AEAD ciphertext; under `Plain`/`AuthOnly` the body is cleartext
/// *by configured profile choice* — consumers (e.g. `HostBytes`) record
/// that distinction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopedMessage {
    bytes: Vec<u8>,
    crypto: Protection,
}

impl EnvelopedMessage {
    /// The protection mode this message was sealed under.
    pub fn crypto(&self) -> Protection {
        self.crypto
    }

    /// Borrows the framed wire bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the proof, yielding the raw wire bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Total wire length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff the wire buffer is empty (never produced by `seal`).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl AsRef<[u8]> for EnvelopedMessage {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TxMeta {
        TxMeta {
            node_id: 3,
            tx_id: 77,
            op_id: 5,
            kind: MsgKind::TxnPut,
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = meta();
        assert_eq!(TxMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn meta_rejects_unknown_kind() {
        let mut buf = meta().encode();
        buf[24] = 0xEE;
        assert_eq!(TxMeta::decode(&buf), Err(CryptoError::Malformed));
    }

    #[test]
    fn full_roundtrip_all_modes() {
        let key = Key::from_bytes([9u8; 32]);
        for mode in [Protection::Plain, Protection::AuthOnly, Protection::Full] {
            let env = SecureEnvelope::new(mode);
            let wire = env.seal(&key, [4u8; 12], &meta(), b"value-bytes");
            assert_eq!(wire.len(), env.wire_len(11));
            assert_eq!(wire.crypto(), mode);
            let (m, payload) = env.open(&key, wire.as_slice()).unwrap();
            assert_eq!(m, meta());
            assert_eq!(payload, b"value-bytes");
        }
    }

    /// The stamp and the IV's sender survive every mode; the unstamped
    /// pair reads and writes a zero stamp.
    #[test]
    fn stamp_and_sender_roundtrip_all_modes() {
        let key = Key::from_bytes([9u8; 32]);
        let stamp = Stamp {
            seq: u64::MAX - 1,
            floor: 7,
            req: 0xA5,
        };
        for mode in [Protection::Plain, Protection::AuthOnly, Protection::Full] {
            let env = SecureEnvelope::new(mode);
            let iv = crate::keys::nonce(0xDEAD_BEEF, 3);
            let wire = env.seal_stamped(&key, iv, &meta(), stamp, b"data");
            let opened = env.open_stamped(&key, wire.as_slice()).unwrap();
            assert_eq!(opened.sender, 0xDEAD_BEEF, "{mode:?}");
            assert_eq!((opened.meta, opened.stamp), (meta(), stamp), "{mode:?}");
            assert_eq!(opened.payload, b"data");
            let plain = env.seal(&key, iv, &meta(), b"data");
            let opened = env.open_stamped(&key, plain.as_slice()).unwrap();
            assert_eq!(opened.stamp, Stamp::default(), "{mode:?}");
        }
    }

    #[test]
    fn full_mode_hides_payload() {
        let key = Key::from_bytes([9u8; 32]);
        let env = SecureEnvelope::new(Protection::Full);
        let wire = env.seal(&key, [4u8; 12], &meta(), b"super-secret-payload");
        let needle = b"super-secret-payload";
        assert!(!wire.as_slice().windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn plain_mode_exposes_payload() {
        let key = Key::from_bytes([9u8; 32]);
        let env = SecureEnvelope::new(Protection::Plain);
        let wire = env.seal(&key, [4u8; 12], &meta(), b"visible");
        assert!(wire.as_slice().windows(7).any(|w| w == b"visible"));
    }

    #[test]
    fn tampering_detected_in_secure_modes() {
        let key = Key::from_bytes([9u8; 32]);
        for mode in [Protection::AuthOnly, Protection::Full] {
            let env = SecureEnvelope::new(mode);
            let mut wire = env.seal(&key, [4u8; 12], &meta(), b"payload!!").into_vec();
            // Flip a body byte.
            let i = IV_LEN + PAD_LEN + META_LEN + 2;
            wire[i] ^= 0x01;
            assert_eq!(
                env.open(&key, &wire),
                Err(CryptoError::AuthFailed),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn iv_tampering_detected_in_full_mode() {
        let key = Key::from_bytes([9u8; 32]);
        let env = SecureEnvelope::new(Protection::Full);
        let mut wire = env.seal(&key, [4u8; 12], &meta(), b"payload!!").into_vec();
        wire[0] ^= 0x01;
        assert_eq!(env.open(&key, &wire), Err(CryptoError::AuthFailed));
    }

    #[test]
    fn downgrade_is_rejected() {
        let key = Key::from_bytes([9u8; 32]);
        let plain = SecureEnvelope::new(Protection::Plain);
        let full = SecureEnvelope::new(Protection::Full);
        let wire = plain.seal(&key, [0u8; 12], &meta(), b"x");
        assert_eq!(
            full.open(&key, wire.as_slice()),
            Err(CryptoError::Malformed)
        );
    }

    #[test]
    fn truncated_message_is_malformed() {
        let key = Key::from_bytes([9u8; 32]);
        let env = SecureEnvelope::new(Protection::Full);
        let wire = env.seal(&key, [4u8; 12], &meta(), b"");
        assert_eq!(
            env.open(&key, &wire.as_slice()[..MESSAGE_OVERHEAD - 1]),
            Err(CryptoError::Malformed)
        );
    }

    #[test]
    fn wrong_key_fails_auth() {
        let env = SecureEnvelope::new(Protection::Full);
        let wire = env.seal(&Key::from_bytes([1u8; 32]), [4u8; 12], &meta(), b"p");
        assert_eq!(
            env.open(&Key::from_bytes([2u8; 32]), wire.as_slice()),
            Err(CryptoError::AuthFailed)
        );
    }
}
