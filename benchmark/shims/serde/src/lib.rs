//! Stand-in for `serde` 1 with the `derive` feature, reduced to one data
//! format. The tree only ever serializes through `serde_json::to_vec` and
//! `serde_json::from_slice`, so the two traits write and read JSON directly;
//! the bytes are the ones `serde_json` produces by default (see [`json`]).

pub mod json;

mod impls;

pub use serde_derive::{Deserialize, Serialize};

/// A value that can be written as JSON.
pub trait Serialize {
    /// Appends this value's JSON text to `out`.
    fn serialize(&self, out: &mut Vec<u8>);

    /// Appends `items` as a JSON array. `u8` overrides this: the tree ships
    /// every key and value as a `Vec<u8>`, so byte arrays are the hot path.
    fn serialize_seq(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        out.push(b'[');
        for (i, v) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            v.serialize(out);
        }
        out.push(b']');
    }
}

/// A value that can be read back from JSON.
pub trait Deserialize<'de>: Sized {
    /// Reads one value at the parser's position.
    fn deserialize(p: &mut json::Parser<'de>) -> Result<Self, json::Error>;

    /// Reads a JSON array of `Self`; `u8` overrides this (see
    /// [`Serialize::serialize_seq`]).
    fn deserialize_seq(p: &mut json::Parser<'de>) -> Result<Vec<Self>, json::Error> {
        let mut out = Vec::new();
        p.begin_array()?;
        while p.next_element(out.is_empty())? {
            out.push(Self::deserialize(p)?);
        }
        Ok(out)
    }

    /// The value of a struct field that the input leaves out: an error,
    /// except for `Option`, which reads as `None`.
    fn missing_field(field: &'static str) -> Result<Self, json::Error> {
        Err(json::Error::new(format!("missing field `{field}`")))
    }
}
