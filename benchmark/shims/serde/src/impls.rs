//! `Serialize` / `Deserialize` for the standard types the tree's derived
//! types are built from.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::json::{self, Error, Parser};
use crate::{Deserialize, Serialize};

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                json::write_unsigned(out, u128::from(*self));
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                <$t>::try_from(p.parse_unsigned()?)
                    .map_err(|_| Error::new(concat!("number out of range for ", stringify!($t))))
            }
        }
    )*};
}
unsigned!(u16, u32, u64);

impl Serialize for u8 {
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_unsigned(out, u128::from(*self));
    }

    fn serialize_seq(items: &[u8], out: &mut Vec<u8>) {
        json::write_byte_array(out, items);
    }
}

impl<'de> Deserialize<'de> for u8 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        u8::try_from(p.parse_unsigned()?).map_err(|_| Error::new("number out of range for u8"))
    }

    fn deserialize_seq(p: &mut Parser<'de>) -> Result<Vec<u8>, Error> {
        p.parse_byte_array()
    }
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                if *self < 0 {
                    out.push(b'-');
                }
                json::write_unsigned(out, u128::from(self.unsigned_abs()));
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                <$t>::try_from(p.parse_signed()?)
                    .map_err(|_| Error::new(concat!("number out of range for ", stringify!($t))))
            }
        }
    )*};
}
signed!(i8, i16, i32, i64);

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_unsigned(out, *self as u128);
    }
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        usize::try_from(p.parse_unsigned()?)
            .map_err(|_| Error::new("number out of range for usize"))
    }
}

impl Serialize for u128 {
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_unsigned(out, *self);
    }
}

impl<'de> Deserialize<'de> for u128 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_unsigned()
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) {
        if self.is_finite() {
            // `{:?}` keeps the `.0` of whole numbers and prints the shortest
            // text that reads back exactly, like serde_json's formatter.
            out.extend_from_slice(format!("{self:?}").as_bytes());
        } else {
            out.extend_from_slice(b"null");
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_f64()
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_bool()
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_str(out, self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_string()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.serialize(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        if p.take_null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn missing_field(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        T::serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        T::deserialize_seq(p)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(p)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("invalid length {len}, expected an array of {N}")))
    }
}

macro_rules! tuple {
    ($len:literal: $($name:ident $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.push(b'[');
                $(
                    if $idx > 0 {
                        out.push(b',');
                    }
                    self.$idx.serialize(out);
                )+
                out.push(b']');
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                p.begin_array()?;
                let value = ($(
                    if p.next_element($idx == 0)? {
                        $name::deserialize(p)?
                    } else {
                        return Err(Error::new(concat!("expected a tuple of ", $len)));
                    },
                )+);
                if p.next_element(false)? {
                    return Err(Error::new(concat!("expected a tuple of ", $len)));
                }
                Ok(value)
            }
        }
    };
}
tuple!(2: A 0, B 1);
tuple!(3: A 0, B 1, C 2);

impl<V: Serialize, S: BuildHasher> Serialize for HashMap<String, V, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(b'{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::write_str(out, k);
            out.push(b':');
            v.serialize(out);
        }
        out.push(b'}');
    }
}

impl<'de, V: Deserialize<'de>, S: BuildHasher + Default> Deserialize<'de>
    for HashMap<String, V, S>
{
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let mut out = HashMap::default();
        p.begin_object()?;
        while let Some(key) = p.next_key(out.is_empty())? {
            out.insert(key, V::deserialize(p)?);
        }
        Ok(out)
    }
}
