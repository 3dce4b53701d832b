//! Stand-in for `serde_json`: the entry points this workspace calls, over
//! the JSON reader and writers of the stand-in `serde`.

use serde::json::{self, Number, Parser};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::ops::Index;

pub use serde::json::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize_json(&mut out);
    Ok(out)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // Every writer emits whole `str`s or ASCII.
    to_vec(value).map(|bytes| String::from_utf8(bytes).expect("serializers write UTF-8"))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let pretty = json::prettify(&to_vec(value)?);
    Ok(String::from_utf8(pretty).expect("serializers write UTF-8"))
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(&to_vec(value)?).map_err(Error::custom)
}

pub fn from_slice<T: Deserialize>(input: &[u8]) -> Result<T> {
    let mut parser = Parser::new(input);
    let value = T::deserialize_json(&mut parser)?;
    parser.end()?;
    Ok(value)
}

pub fn from_str<T: Deserialize>(input: &str) -> Result<T> {
    from_slice(input.as_bytes())
}

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_slice(&to_vec(value)?)
}

pub type Map = BTreeMap<String, Value>;

/// Any JSON value. Object members are kept sorted by key, the published
/// crate's default.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(u)) => Some(*u),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::U64(u)) => Some(*u as f64),
            Value::Number(Number::I64(i)) => Some(*i as f64),
            Value::Number(Number::F64(f)) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
}

/// `value["key"]` is `Null` when `value` is not an object or has no such
/// member, as in the published crate.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        self.as_array().and_then(|items| items.get(index)).unwrap_or(&NULL)
    }
}

impl Serialize for Value {
    fn serialize_json(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => b.serialize_json(out),
            Value::Number(Number::U64(u)) => u.serialize_json(out),
            Value::Number(Number::I64(i)) => i.serialize_json(out),
            Value::Number(Number::F64(f)) => f.serialize_json(out),
            Value::String(s) => s.serialize_json(out),
            Value::Array(items) => items.serialize_json(out),
            Value::Object(map) => map.serialize_json(out),
        }
    }
}

impl Deserialize for Value {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self> {
        Ok(match p.peek() {
            Some(b'n') => {
                p.parse_null()?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(p.parse_bool()?),
            Some(b'"') => Value::String(String::deserialize_json(p)?),
            Some(b'[') => Value::Array(Vec::deserialize_json(p)?),
            Some(b'{') => Value::Object(Map::deserialize_json(p)?),
            _ => Value::Number(p.parse_number()?),
        })
    }
}

/// Builds a [`Value`] from JSON-like syntax whose leaves are `null`,
/// nested `[..]` / `{..}`, or any expression that implements `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($items:tt)* ]) => { $crate::Value::Array($crate::json_items!([] () $($items)*)) };
    ({ $($members:tt)* }) => {
        $crate::Value::Object(::std::collections::BTreeMap::from($crate::json_members!([] $($members)*)))
    };
    ($leaf:expr) => { $crate::to_value(&$leaf).expect("serializable") };
}

/// Array body of [`json!`]: `[done..] (tokens of the current element) rest..`.
/// A comma can only end an element at this level, since nested commas sit
/// inside a bracketed token tree.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ([$($done:expr,)*] ()) => { ::std::vec![$($done),*] };
    ([$($done:expr,)*] ($($cur:tt)+)) => { ::std::vec![$($done,)* $crate::json!($($cur)+)] };
    ([$($done:expr,)*] ($($cur:tt)+) , $($rest:tt)*) => {
        $crate::json_items!([$($done,)* $crate::json!($($cur)+),] () $($rest)*)
    };
    ([$($done:expr,)*] ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_items!([$($done,)*] ($($cur)* $next) $($rest)*)
    };
}

/// Object body of [`json!`]: `[done..] "key": value tokens.., rest..`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ([$($done:expr,)*]) => { [$($done),*] };
    ([$($done:expr,)*] $key:literal : $($rest:tt)*) => {
        $crate::json_members!(@value [$($done,)*] $key () $($rest)*)
    };
    (@value [$($done:expr,)*] $key:literal ($($cur:tt)+)) => {
        $crate::json_members!([$($done,)* (::std::string::String::from($key), $crate::json!($($cur)+)),])
    };
    (@value [$($done:expr,)*] $key:literal ($($cur:tt)+) , $($rest:tt)*) => {
        $crate::json_members!([$($done,)* (::std::string::String::from($key), $crate::json!($($cur)+)),] $($rest)*)
    };
    (@value [$($done:expr,)*] $key:literal ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_members!(@value [$($done,)*] $key ($($cur)* $next) $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values_from_expressions() {
        let n = 7u64;
        let v = json!({
            "id": n,
            "name": format!("user-{}", n % 5),
            "score": (n % 1_000) as f64 / 10.0,
            "tags": [format!("t{n}"), "x"],
            "nested": { "lat": -1.5, "none": null },
            "empty": [],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"empty":[],"id":7,"name":"user-2","nested":{"lat":-1.5,"none":null},"score":0.7,"tags":["t7","x"]}"#
        );
        assert_eq!(v["id"].as_u64(), Some(7));
        assert_eq!(v["nested"]["lat"].as_f64(), Some(-1.5));
        assert!(v["absent"]["deeper"].is_null());
    }

    #[test]
    fn text_round_trips_through_value() {
        let text = r#"{"a":[1,-2,3.5,1e21,"q\"\\\n\u00e9\ud83d\ude00"],"b":{"c":null,"d":true}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][4].as_str(), Some("q\"\\\né😀"));
        let again: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, again);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.starts_with("{\n  \"a\": [\n    1,\n    -2,"));
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_text_is_refused() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "01",
            "1.",
            "\"\\x\"",
            "\"\u{1}\"",
            "nul",
            "{\"a\" 1}",
            "[1]]",
            "\"\\ud800\"",
            "1e",
            "-",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str::<Value>(&deep).is_err());
    }

    #[test]
    fn scalars_maps_and_tuples_round_trip() {
        let floats = [0.1, 1.0, -0.0, 1e-7, 123456789.125, f64::MAX, f64::MIN_POSITIVE];
        let text = to_string(&floats).unwrap();
        assert_eq!(from_str::<[f64; 7]>(&text).unwrap(), floats);
        assert!(text.starts_with("[0.1,1.0,-0.0,1e-7,"));
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");

        let mut map = BTreeMap::new();
        map.insert(3u32, vec![(1u16, 2u32)]);
        let text = to_string(&map).unwrap();
        assert_eq!(text, r#"{"3":[[1,2]]}"#);
        assert_eq!(from_str::<BTreeMap<u32, Vec<(u16, u32)>>>(&text).unwrap(), map);

        assert_eq!(from_str::<Option<u16>>("null").unwrap(), None);
        assert!(from_str::<u16>("65536").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert_eq!(from_str::<f64>("1").unwrap(), 1.0);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    }
}
