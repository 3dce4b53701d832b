//! Stand-in for `serde`, for building this workspace with no registry.
//!
//! The published crate is format-agnostic; JSON is the only format this
//! workspace uses, so here `Serialize` writes JSON text and `Deserialize`
//! reads it, with no data model in between. `#[derive(Serialize,
//! Deserialize)]` and the `#[serde(..)]` attributes the workspace uses
//! produce the same JSON as the published crates.

pub mod json;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use json::{Error, Parser};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

pub trait Serialize {
    /// Appends this value as compact JSON.
    fn serialize_json(&self, out: &mut Vec<u8>);
}

pub trait Deserialize: Sized {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error>;

    /// The value of a struct field of this type that the input leaves out:
    /// `None` for `Option`, an error for everything else.
    fn absent() -> Option<Self> {
        None
    }

    /// Reads a map key, which JSON always gives as a string: first as that
    /// string, then (for numeric keys) as the text inside it.
    fn from_map_key(key: &str) -> Result<Self, Error> {
        let mut quoted = Vec::with_capacity(key.len() + 2);
        json::write_str(&mut quoted, key);
        Self::deserialize_json(&mut Parser::new(&quoted)).or_else(|first| {
            let mut p = Parser::new(key.as_bytes());
            let value = Self::deserialize_json(&mut p).map_err(|_| first)?;
            p.end()?;
            Ok(value)
        })
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                json::write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
                let wide = p.parse_u64()?;
                <$t>::try_from(wide).map_err(|_| {
                    Error::custom(format_args!("{wide} does not fit {}", stringify!($t)))
                })
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                json::write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
                let wide = p.parse_i64()?;
                <$t>::try_from(wide).map_err(|_| {
                    Error::custom(format_args!("{wide} does not fit {}", stringify!($t)))
                })
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);
signed!(i64);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        json::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.parse_f64()
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.parse_bool()
    }
}

impl Serialize for () {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"null");
    }
}

impl Deserialize for () {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.parse_null()? {
            Ok(())
        } else {
            Err(Error::custom("expected null"))
        }
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        json::write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.parse_string().map(|s| s.into_owned())
    }

    fn from_map_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => value.serialize_json(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.parse_null()? {
            Ok(None)
        } else {
            T::deserialize_json(p).map(Some)
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut Vec<u8>) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item.serialize_json(out);
    }
    out.push(b']');
}

fn deserialize_seq<T: Deserialize>(
    p: &mut Parser<'_>,
    mut push: impl FnMut(T),
) -> Result<(), Error> {
    let mut seq = p.begin_array()?;
    while p.next_element(&mut seq)? {
        push(T::deserialize_json(p)?);
    }
    Ok(())
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        deserialize_seq(p, |item| items.push(item))?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        serialize_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize_json(p)?;
        let found = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format_args!("expected {N} elements, found {found}")))
    }
}

macro_rules! tuples {
    ($(($($name:ident $index:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json(&self, out: &mut Vec<u8>) {
                out.push(b'[');
                $(
                    if $index > 0 {
                        out.push(b',');
                    }
                    self.$index.serialize_json(out);
                )+
                out.push(b']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
                let mut seq = p.begin_array()?;
                let value = ($(
                    if p.next_element(&mut seq)? {
                        $name::deserialize_json(p)?
                    } else {
                        return Err(Error::custom("tuple has too few elements"));
                    },
                )+);
                p.end_array(&mut seq)?;
                Ok(value)
            }
        }
    )*};
}

tuples! {
    (A 0, B 1)
}

fn serialize_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut Vec<u8>,
) {
    out.push(b'{');
    let mut first = true;
    for (key, value) in entries {
        json::write_map_key(out, &mut first, key);
        value.serialize_json(out);
    }
    out.push(b'}');
}

fn deserialize_map<K: Deserialize, V: Deserialize>(
    p: &mut Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    let mut seq = p.begin_object()?;
    while let Some(key) = p.next_key(&mut seq)? {
        insert(K::from_map_key(&key)?, V::deserialize_json(p)?);
    }
    Ok(())
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        serialize_map(self, out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        deserialize_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        serialize_map(self, out);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut map = HashMap::default();
        deserialize_map(p, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}
