//! Stand-in for `serde_json` 1: `to_vec` and `from_slice` over the JSON
//! writer and parser that live in the `serde` stand-in.

pub use serde::json::Error;

/// What [`to_vec`] and [`from_slice`] return.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON. Never fails for the types the
/// stand-in supports; the `Result` is the published signature.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut out);
    Ok(out)
}

/// Reads one JSON document that spans all of `bytes`.
pub fn from_slice<'de, T: serde::Deserialize<'de>>(bytes: &'de [u8]) -> Result<T> {
    let mut p = serde::json::Parser::new(bytes);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}
