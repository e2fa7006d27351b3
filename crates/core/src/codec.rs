//! The one byte codec of the workspace: checkpoints, WAL records and
//! network frames all lay their fields out through [`Wire`].
//!
//! The format is a deliberately boring little-endian binary encoding:
//!
//! * integers are fixed-width little-endian; every `u64` travels at full
//!   precision (RNG state words and query-ring words use the whole range,
//!   which a float-backed JSON value model cannot carry);
//! * `f64` travels as its raw bits, `bool` as one byte `0`/`1`;
//! * strings and collections carry a `u64` count before their items, and
//!   are written in deterministic (sorted) order by their owners, so equal
//!   values encode byte-identically;
//! * enums carry a one-byte tag before their fields.
//!
//! **Lengths.** Every encoded item takes at least one byte, so a count
//! larger than the bytes left in the payload cannot be honest: the reader
//! rejects it as [`CodecError::Truncated`] before reserving anything. The
//! rule needs no constant; a string reserves only bytes it has read, and
//! a collection reserves at most 4096 items up front and grows as its
//! items decode. Counters (events seen, window indexes, release counts)
//! are not lengths: they decode as a plain `u64` and may take any value.
//! Event-type universe sizes that no payload bytes back (the checkpoint
//! form of an indicator vector) are bounded by [`MAX_TYPES`].
//!
//! **Versioning lives in the envelopes**, not here: the checkpoint magic,
//! the WAL magic and the network protocol version each name their
//! format, and bump when a field they carry changes. How a `u64` or a
//! string is laid out is shared by all three and does not move.
//!
//! **Indicator vectors have two encodings.** The [`Wire`] impl is the
//! checkpoint form: the universe size, then the list of present types
//! (compact for the sparse vectors a detector holds). Network frames
//! carry released vectors as raw words instead (`n_types`, the word
//! count, then the words), through one named encode/decode pair in
//! `pdp_server::frame` that rejects bits outside the type universe.
//!
//! Decode errors are a typed [`CodecError`]; the durability layer turns
//! them into [`CoreError::Durability`] and the network edge into its
//! frame error, so malformed bytes never panic and never read out of
//! bounds.

use pdp_cep::{PatternId, QueryId};
use pdp_stream::{AttrValue, Event, EventType, IndicatorVector, TimeDelta, Timestamp};

use crate::error::CoreError;
use crate::service::{KeyedEvent, SubjectId};

/// The largest event-type universe a decoder accepts where no payload
/// bytes back the size (a universe of `n` types costs `n / 8` bytes of
/// memory however few of them are present).
pub const MAX_TYPES: usize = 1 << 24;

/// Most items a collection reserves before any of them has decoded; a
/// longer collection grows as its items arrive.
const RESERVE_ITEMS: usize = 4096;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended early, or announced a count its remaining bytes
    /// cannot hold.
    Truncated,
    /// The payload decoded completely but left this many bytes unread.
    TrailingBytes(usize),
    /// A field is structurally invalid (bad tag, bad utf-8, a value its
    /// type rejects, ...).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::Malformed(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Durability(e.to_string())
    }
}

/// Growable encode buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer that appends to `buf` (reusing its capacity).
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes.
    #[inline]
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a string in its [`Wire`] form (count, then utf-8 bytes)
    /// without owning it.
    #[inline]
    pub(crate) fn put_str(&mut self, s: &str) {
        s.len().encode(self);
        self.put(s.as_bytes());
    }
}

/// Bounds-checked decode cursor over one payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Decode a string or collection count. A count larger than the bytes
    /// left is [`CodecError::Truncated`]: every item takes at least one.
    #[inline]
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        let n = u64::decode(self)?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(n as usize)
    }

    /// Decode an event-type universe size no payload bytes back, bounded
    /// by [`MAX_TYPES`].
    pub(crate) fn read_universe(&mut self) -> Result<usize, CodecError> {
        let n = u64::decode(self)?;
        if n > MAX_TYPES as u64 {
            return Err(CodecError::Malformed(format!(
                "universe of {n} types exceeds {MAX_TYPES}"
            )));
        }
        Ok(n as usize)
    }

    /// Require the payload to be consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// One type's byte encoding. Implementations must be deterministic:
/// equal values encode to equal bytes.
pub trait Wire: Sized {
    /// Append this value to `w`.
    fn encode(&self, w: &mut ByteWriter);
    /// Decode one value from `r`.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl Wire for bool {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        u8::from(*self).encode(w);
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::Malformed(format!("invalid bool byte {b}"))),
        }
    }
}

macro_rules! wire_le_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn encode(&self, w: &mut ByteWriter) {
                w.put(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_le_int!(u8, u32, u64, i64);

/// A `usize` is a counter or an index, encoded as a `u64`. Lengths go
/// through [`ByteReader::read_len`] instead.
impl Wire for usize {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        (*self as u64).encode(w);
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Malformed(format!("{v} exceeds usize")))
    }
}

impl Wire for f64 {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        self.to_bits().encode(w);
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.read_len()?;
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| CodecError::Malformed("invalid utf-8 string".into()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.len().encode(w);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.read_len()?;
        let mut out = Vec::with_capacity(len.min(RESERVE_ITEMS));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => false.encode(w),
            Some(v) => {
                true.encode(w);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(if bool::decode(r)? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

macro_rules! wire_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);

impl Wire for [u64; 4] {
    fn encode(&self, w: &mut ByteWriter) {
        for word in self {
            word.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut words = [0; 4];
        for word in &mut words {
            *word = u64::decode(r)?;
        }
        Ok(words)
    }
}

macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn encode(&self, w: &mut ByteWriter) {
                self.0.encode(w);
            }
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok($ty(<$inner>::decode(r)?))
            }
        }
    )*};
}

wire_newtype!(
    EventType(u32),
    PatternId(u32),
    QueryId(u32),
    SubjectId(u64),
    Timestamp(i64),
    TimeDelta(i64)
);

impl Wire for AttrValue {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            AttrValue::Int(v) => {
                0u8.encode(w);
                v.encode(w);
            }
            AttrValue::Float(v) => {
                1u8.encode(w);
                v.encode(w);
            }
            AttrValue::Str(v) => {
                2u8.encode(w);
                v.encode(w);
            }
            AttrValue::Bool(v) => {
                3u8.encode(w);
                v.encode(w);
            }
            AttrValue::Location(x, y) => {
                4u8.encode(w);
                x.encode(w);
                y.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => AttrValue::Int(i64::decode(r)?),
            1 => AttrValue::Float(f64::decode(r)?),
            2 => AttrValue::Str(String::decode(r)?),
            3 => AttrValue::Bool(bool::decode(r)?),
            4 => AttrValue::Location(f64::decode(r)?, f64::decode(r)?),
            t => return Err(CodecError::Malformed(format!("invalid attr tag {t}"))),
        })
    }
}

impl Wire for Event {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        self.ty.encode(w);
        self.ts.encode(w);
        self.attr_count().encode(w);
        for (name, value) in self.attrs() {
            w.put_str(name);
            value.encode(w);
        }
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let ty = EventType::decode(r)?;
        let ts = Timestamp::decode(r)?;
        let mut event = Event::new(ty, ts);
        for _ in 0..r.read_len()? {
            let name = String::decode(r)?;
            event.set_attr(&name, AttrValue::decode(r)?);
        }
        Ok(event)
    }
}

impl Wire for KeyedEvent {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        self.subject.encode(w);
        self.event.encode(w);
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(KeyedEvent {
            subject: SubjectId::decode(r)?,
            event: Event::decode(r)?,
        })
    }
}

/// The checkpoint form: universe size, then the present types.
impl Wire for IndicatorVector {
    fn encode(&self, w: &mut ByteWriter) {
        self.n_types().encode(w);
        let present: Vec<EventType> = self.present_types().collect();
        present.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_types = r.read_universe()?;
        let present = Vec::<EventType>::decode(r)?;
        if present.iter().any(|t| t.index() >= n_types) {
            return Err(CodecError::Malformed(
                "indicator bit outside its universe".into(),
            ));
        }
        Ok(IndicatorVector::from_present(present, n_types))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: Wire>(value: &T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        value.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_truncated() {
        // a string and a vector announcing one byte more than they carry
        let mut bytes = encoded(&"hello".to_owned());
        bytes[0] = 6;
        assert_eq!(
            String::decode(&mut ByteReader::new(&bytes)),
            Err(CodecError::Truncated)
        );
        let mut bytes = encoded(&vec![1u8, 2, 3]);
        bytes[0] = 4;
        assert_eq!(
            Vec::<u8>::decode(&mut ByteReader::new(&bytes)),
            Err(CodecError::Truncated)
        );
        // a count of u64::MAX is rejected before anything is reserved
        let bytes = encoded(&u64::MAX);
        assert_eq!(
            Vec::<Vec<u64>>::decode(&mut ByteReader::new(&bytes)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn counters_are_not_lengths() {
        for v in [0usize, 1 << 31, 1 << 40, usize::MAX] {
            let bytes = encoded(&v);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(usize::decode(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn universe_sizes_are_bounded() {
        let wide = IndicatorVector::from_present([EventType(3)], MAX_TYPES);
        let bytes = encoded(&wide);
        assert_eq!(
            IndicatorVector::decode(&mut ByteReader::new(&bytes)).unwrap(),
            wide
        );
        let mut w = ByteWriter::new();
        (MAX_TYPES + 1).encode(&mut w);
        0usize.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            IndicatorVector::decode(&mut ByteReader::new(&bytes)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn errors_keep_their_durability_messages() {
        for (e, msg) in [
            (CodecError::Truncated, "truncated payload"),
            (
                CodecError::TrailingBytes(3),
                "3 trailing bytes after payload",
            ),
            (
                CodecError::Malformed("invalid bool byte 7".into()),
                "invalid bool byte 7",
            ),
        ] {
            assert_eq!(CoreError::from(e), CoreError::Durability(msg.into()));
        }
    }
}
