//! Shared wire primitives: big-endian integer and length-prefixed field
//! codecs over [`bytes`] buffers, and the crate-wide error type.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Maximum length accepted for any length-prefixed field. Guards decoders
/// against a corrupted length field requesting gigabytes.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes available than the format requires.
    Truncated { needed: usize, available: usize },
    /// A magic number did not match.
    BadMagic { expected: u32, found: u32 },
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message/discriminant tag.
    UnknownTag(u8),
    /// A length field exceeded [`MAX_FIELD_LEN`] or an internal bound.
    OversizedField { len: usize },
    /// A field failed semantic validation.
    Invalid(&'static str),
    /// UTF-8 decoding of a text field failed.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            WireError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad magic: expected {expected:#010x}, found {found:#010x}"
                )
            }
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::OversizedField { len } => write!(f, "oversized field: {len} bytes"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that `buf` has at least `needed` readable bytes.
pub fn ensure(buf: &impl Buf, needed: usize) -> Result<(), WireError> {
    if buf.remaining() < needed {
        Err(WireError::Truncated {
            needed,
            available: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Reads a `u8`.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, WireError> {
    ensure(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reads a big-endian `u16`.
pub fn get_u16(buf: &mut impl Buf) -> Result<u16, WireError> {
    ensure(buf, 2)?;
    Ok(buf.get_u16())
}

/// Reads a big-endian `u32`.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, WireError> {
    ensure(buf, 4)?;
    Ok(buf.get_u32())
}

/// Reads a big-endian `u64`.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, WireError> {
    ensure(buf, 8)?;
    Ok(buf.get_u64())
}

/// Reads a `u32`-length-prefixed byte field.
pub fn get_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_FIELD_LEN {
        return Err(WireError::OversizedField { len });
    }
    ensure(buf, len)?;
    Ok(buf.split_to(len))
}

/// Reads a `u16`-length-prefixed UTF-8 string field.
pub fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    let len = get_u16(buf)? as usize;
    ensure(buf, len)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Writes a `u32`-length-prefixed byte field.
///
/// # Panics
/// Panics if `bytes` exceeds [`MAX_FIELD_LEN`]; encoders construct their
/// own payloads, so this is a bug, not input.
pub fn put_bytes(out: &mut impl BufMut, bytes: &[u8]) {
    assert!(bytes.len() <= MAX_FIELD_LEN, "field too large to encode");
    out.put_u32(bytes.len() as u32);
    out.put_slice(bytes);
}

/// Writes a `u16`-length-prefixed UTF-8 string field.
///
/// # Panics
/// Panics if `s` exceeds `u16::MAX` bytes.
pub fn put_string(out: &mut BytesMut, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too large to encode");
    out.put_u16(s.len() as u16);
    out.put_slice(s.as_bytes());
}

/// Verifies the buffer is fully consumed — strict codecs reject trailing
/// garbage so corruption cannot hide after a valid prefix.
pub fn expect_eof(buf: &impl Buf) -> Result<(), WireError> {
    if buf.remaining() != 0 {
        Err(WireError::Invalid("trailing bytes after message"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_roundtrips() {
        let mut out = BytesMut::new();
        out.put_u8(7);
        out.put_u16(300);
        out.put_u32(70_000);
        out.put_u64(u64::MAX - 1);
        let mut buf = out.freeze();
        assert_eq!(get_u8(&mut buf).unwrap(), 7);
        assert_eq!(get_u16(&mut buf).unwrap(), 300);
        assert_eq!(get_u32(&mut buf).unwrap(), 70_000);
        assert_eq!(get_u64(&mut buf).unwrap(), u64::MAX - 1);
        assert!(expect_eof(&buf).is_ok());
    }

    #[test]
    fn truncated_reads_report_needs() {
        let mut buf = Bytes::from_static(&[1, 2]);
        get_u16(&mut buf).unwrap();
        match get_u32(&mut buf) {
            Err(WireError::Truncated {
                needed: 4,
                available: 0,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bytes_field_roundtrip() {
        let mut out = BytesMut::new();
        put_bytes(&mut out, b"hello frame payload");
        let mut buf = out.freeze();
        assert_eq!(&get_bytes(&mut buf).unwrap()[..], b"hello frame payload");
        assert!(expect_eof(&buf).is_ok());
    }

    #[test]
    fn empty_bytes_field_roundtrip() {
        let mut out = BytesMut::new();
        put_bytes(&mut out, b"");
        let mut buf = out.freeze();
        assert_eq!(get_bytes(&mut buf).unwrap().len(), 0);
    }

    #[test]
    fn string_field_roundtrip_utf8() {
        let mut out = BytesMut::new();
        put_string(&mut out, "bcast-töken-ñ");
        let mut buf = out.freeze();
        assert_eq!(get_string(&mut buf).unwrap(), "bcast-töken-ñ");
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut out = BytesMut::new();
        out.put_u16(2);
        out.put_slice(&[0xFF, 0xFE]);
        let mut buf = out.freeze();
        assert_eq!(get_string(&mut buf), Err(WireError::BadUtf8));
    }

    #[test]
    fn oversized_length_field_is_rejected_not_allocated() {
        let mut out = BytesMut::new();
        out.put_u32(u32::MAX); // claims 4 GiB
        let mut buf = out.freeze();
        match get_bytes(&mut buf) {
            Err(WireError::OversizedField { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let buf = Bytes::from_static(&[0]);
        assert_eq!(
            expect_eof(&buf),
            Err(WireError::Invalid("trailing bytes after message"))
        );
    }

    #[test]
    fn errors_display_usefully() {
        let e = WireError::Truncated {
            needed: 8,
            available: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(WireError::BadUtf8.to_string().contains("UTF-8"));
        assert!(WireError::UnknownTag(0xAB).to_string().contains("0xab"));
    }
}
