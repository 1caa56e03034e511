//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The real serde is a zero-copy framework parameterized over
//! serializer/deserializer implementations; this workspace only ever
//! derives `Serialize`/`Deserialize` on plain data types and round-trips
//! them through `serde_json`. That permits a much smaller model: every
//! type converts to and from a self-describing [`Value`] tree, and
//! `serde_json` is just a text encoding of that tree.
//!
//! Encoding conventions (mirroring serde's defaults closely enough for
//! lossless round-trips):
//! - named-field structs → `Value::Map`
//! - newtype structs → the inner value
//! - tuple structs / tuples → `Value::Seq`
//! - unit enum variants → `Value::Str(variant)`
//! - data-carrying variants → externally tagged `Value::Map`
//! - `Option`: `None` → `Value::Null`, `Some(v)` → `v`
//! - ordered maps → `Value::Seq` of two-element `Value::Seq` pairs
//!   (serde_json requires string keys; encoding pairs instead keeps
//!   non-string keys like `InterruptKind` lossless)

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / `None` / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any integer (wide enough for `u64` and `i64` losslessly).
    Int(i128),
    /// A binary floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered string-keyed map (struct fields, enum tags).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Views this value as a struct-style map.
    pub fn as_map(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Map(entries) => Ok(entries),
            other => Err(Error::custom(format_args!(
                "expected map, found {}",
                other.kind()
            ))),
        }
    }

    /// Views this value as a sequence.
    pub fn as_seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) => Ok(items),
            other => Err(Error::custom(format_args!(
                "expected sequence, found {}",
                other.kind()
            ))),
        }
    }

    /// Views this value as a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::custom(format_args!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Looks up a struct field in a serialized map (derive support).
pub fn get_field<'a>(map: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format_args!("missing field `{name}`")))
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self`.
    fn to_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes a value of this type.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

pub mod de {
    //! Deserialization support (mirrors `serde::de`).
    pub use super::Error;

    /// A type deserializable without borrowing from the input. Every
    /// [`Deserialize`](super::Deserialize) type qualifies in this model.
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

pub mod ser {
    //! Serialization support (mirrors `serde::ser`).
    pub use super::Error;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format_args!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::custom(format_args!(
                            "integer {i} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(Error::custom(format_args!(
                        "expected integer, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(f64::from(*self))
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    // A float whose shortest decimal form has no
                    // fractional digits parses back as an integer.
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(Error::custom(format_args!(
                        "expected number, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_owned)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_seq()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        for pair in value.as_seq()? {
            let pair = pair.as_seq()?;
            if pair.len() != 2 {
                return Err(Error::custom("map entry is not a [key, value] pair"));
            }
            match map.entry(K::from_value(&pair[0])?) {
                Entry::Occupied(_) => return Err(Error::custom("duplicate map key")),
                Entry::Vacant(slot) => {
                    slot.insert(V::from_value(&pair[1])?);
                }
            }
        }
        Ok(map)
    }
}

impl<T: Serialize> Serialize for Reverse<T> {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl<T: Deserialize> Deserialize for Reverse<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Reverse)
    }
}

impl<T: Serialize + Ord + Clone> Serialize for BinaryHeap<T> {
    fn to_value(&self) -> Value {
        // Heap iteration order is unspecified; serialize sorted so equal
        // heaps always produce identical bytes.
        Value::Seq(
            self.clone()
                .into_sorted_vec()
                .iter()
                .map(Serialize::to_value)
                .collect(),
        )
    }
}

impl<T: Deserialize + Ord> Deserialize for BinaryHeap<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_seq()?.iter().map(T::from_value).collect()
    }
}

macro_rules! impl_tuple {
    ($(($($idx:tt $t:ident),+)),* $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let seq = value.as_seq()?;
                let arity = [$($idx),+].len();
                if seq.len() != arity {
                    return Err(Error::custom(format_args!(
                        "expected tuple of {arity} elements, found {}",
                        seq.len()
                    )));
                }
                Ok(($($t::from_value(&seq[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
);

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let seq = value.as_seq()?;
        if seq.len() != N {
            return Err(Error::custom(format_args!(
                "expected array of {N} elements, found {}",
                seq.len()
            )));
        }
        let items: Vec<T> = seq.iter().map(T::from_value).collect::<Result<_, _>>()?;
        items
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(()),
            other => Err(Error::custom(format_args!(
                "expected null, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        let back = T::from_value(&v.to_value()).expect("from_value");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round(true);
        round(0xDEAD_BEEF_DEAD_BEEFu64);
        round(-42i64);
        round(3.5f64);
        round(1.25f32);
        round(String::from("hello \"world\""));
        round(());
    }

    #[test]
    fn containers_round_trip() {
        round(vec![1u32, 2, 3]);
        round(Some(7u8));
        round(None::<u8>);
        round((1usize, 2.5f64, -3i32));
        let mut map = BTreeMap::new();
        map.insert(String::from("a"), (1usize, 2.0f64));
        map.insert(String::from("b"), (3usize, 4.0f64));
        round(map);
    }

    #[test]
    fn duplicate_map_keys_error() {
        let pair = |k: i128, v: i128| Value::Seq(vec![Value::Int(k), Value::Int(v)]);
        let twice = Value::Seq(vec![pair(1, 10), pair(2, 20), pair(1, 10)]);
        let err = BTreeMap::<u8, u8>::from_value(&twice).unwrap_err();
        assert_eq!(err.to_string(), "duplicate map key");
        let once = Value::Seq(vec![pair(1, 10), pair(2, 20)]);
        assert_eq!(
            BTreeMap::<u8, u8>::from_value(&once).map(|m| m.len()),
            Ok(2)
        );
    }

    #[test]
    fn out_of_range_integer_errors() {
        let v = Value::Int(300);
        assert!(u8::from_value(&v).is_err());
    }

    #[test]
    fn missing_field_errors() {
        let map = vec![(String::from("a"), Value::Int(1))];
        assert!(get_field(&map, "b").is_err());
        assert!(get_field(&map, "a").is_ok());
    }
}
