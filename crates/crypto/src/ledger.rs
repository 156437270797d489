//! A per-thread tally of the crypto that runs and the crypto that is
//! priced, so a test can hold virtual time to the work.
//!
//! Every entry point of this crate ([`aead_seal`](crate::aead_seal),
//! [`aead_open`](crate::aead_open), [`sha256`](crate::sha256),
//! [`sha256_parts`](crate::hash::sha256_parts) and the HMACs) counts its
//! calls and input bytes as *ran*; a [`Sealer`](crate::Sealer) counts what
//! it tells its meter as *priced*, and the bytes it passed to a primitive
//! but did not price as *framing*. A simulation runs on one thread, so the
//! tally is a plain cell per thread, always on.

use std::cell::Cell;

/// The two families the cost model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// AES-256-GCM, sealing or opening: `CostModel::aes_ns`.
    Aes,
    /// SHA-256, plain or keyed (HMAC): `CostModel::sha_ns`.
    Sha,
}

impl Primitive {
    /// Both, in index order.
    pub const ALL: [Primitive; 2] = [Primitive::Aes, Primitive::Sha];
}

/// Calls and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// How many calls.
    pub calls: u64,
    /// How many bytes, summed over the calls.
    pub bytes: u64,
}

impl Tally {
    const ZERO: Tally = Tally { calls: 0, bytes: 0 };

    fn add(self, bytes: usize) -> Tally {
        Tally {
            calls: self.calls + 1,
            bytes: self.bytes + bytes as u64,
        }
    }

    fn minus(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// What ran and what was priced on this thread, per [`Primitive`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    ran: [Tally; 2],
    priced: [Tally; 2],
    framing: [u64; 2],
}

impl Ledger {
    const ZERO: Ledger = Ledger {
        ran: [Tally::ZERO; 2],
        priced: [Tally::ZERO; 2],
        framing: [0; 2],
    };

    /// The primitive's calls and every byte they were given: AAD, the
    /// plaintext or the ciphertext with its tag, every hashed part.
    pub fn ran(&self, primitive: Primitive) -> Tally {
        self.ran[primitive as usize]
    }

    /// The calls a `Sealer` priced and the plaintext bytes it priced.
    pub fn priced(&self, primitive: Primitive) -> Tally {
        self.priced[primitive as usize]
    }

    /// The bytes priced calls gave the primitive but did not price.
    pub fn framing(&self, primitive: Primitive) -> u64 {
        self.framing[primitive as usize]
    }

    /// What was tallied after `earlier`, a reading of this same ledger.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            ran: std::array::from_fn(|i| self.ran[i].minus(earlier.ran[i])),
            priced: std::array::from_fn(|i| self.priced[i].minus(earlier.priced[i])),
            framing: std::array::from_fn(|i| self.framing[i] - earlier.framing[i]),
        }
    }
}

thread_local! {
    static LEDGER: Cell<Ledger> = const { Cell::new(Ledger::ZERO) };
}

/// This thread's ledger as it stands.
pub fn read() -> Ledger {
    LEDGER.get()
}

/// One call of `primitive` over `bytes`.
pub(crate) fn ran(primitive: Primitive, bytes: usize) {
    let mut l = LEDGER.get();
    l.ran[primitive as usize] = l.ran[primitive as usize].add(bytes);
    LEDGER.set(l);
}

/// One priced call: `bytes` priced, `framing` more given to the primitive.
pub(crate) fn priced(primitive: Primitive, bytes: usize, framing: usize) {
    let mut l = LEDGER.get();
    l.priced[primitive as usize] = l.priced[primitive as usize].add(bytes);
    l.framing[primitive as usize] += framing as u64;
    LEDGER.set(l);
}
