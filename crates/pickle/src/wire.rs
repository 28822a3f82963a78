//! Minimal binary wire format: little-endian integers, length-prefixed
//! strings.  Bin files are self-contained; this module is the only place
//! that knows the byte layout.

use crate::PickleError;

/// A growable byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer appending to `buf`.
    pub fn append_to(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// A cursor over pickled bytes.
#[derive(Debug)]
pub struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'b [u8]) -> Reader<'b> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], PickleError> {
        if self.pos + n > self.buf.len() {
            return Err(PickleError::Corrupt(format!(
                "unexpected end of pickle at byte {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PickleError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, PickleError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, PickleError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, PickleError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, PickleError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a `u32` element count, rejecting one whose elements, at
    /// `min_elem_bytes` (at least 1) each, could not fit in the bytes
    /// left — so a caller may reserve that many without trusting it.
    ///
    /// # Errors
    ///
    /// [`PickleError::Corrupt`] on a truncated or implausible count.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, PickleError> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > left {
            return Err(PickleError::Corrupt(format!(
                "count {n} at byte {} exceeds the {left} bytes left",
                self.pos - 4
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PickleError> {
        Ok(self.str_ref()?.to_owned())
    }

    /// Reads a length-prefixed UTF-8 string as a slice borrowed from the
    /// underlying buffer — no allocation. This is the hot-path variant:
    /// rehydration interns symbols straight from these slices.
    pub fn str_ref(&mut self) -> Result<&'b str, PickleError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|_| PickleError::Corrupt("invalid UTF-8 in string".into()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, PickleError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads length-prefixed raw bytes as a borrowed slice — no copy.
    pub fn bytes_ref(&mut self) -> Result<&'b [u8], PickleError> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_rejects_what_the_remaining_bytes_cannot_hold() {
        let mut w = Writer::new();
        w.u32(3);
        w.u32(1);
        w.u32(2);
        w.u32(3);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).count(4).unwrap(), 3);
        assert!(Reader::new(&bytes).count(5).is_err());
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        // Even zero-sized elements are charged one byte each.
        assert!(Reader::new(&bytes).count(0).is_err());
        assert!(Reader::new(&bytes[..2]).count(1).is_err());
    }

    #[test]
    fn round_trip_all_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 5);
        w.i64(-42);
        w.u128(u128::MAX / 3);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.at_end());
    }

    #[test]
    fn borrowed_reads_alias_the_input_buffer() {
        let mut w = Writer::new();
        w.str("alpha");
        w.bytes(&[9, 8, 7]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let s = r.str_ref().unwrap();
        let b = r.bytes_ref().unwrap();
        assert_eq!(s, "alpha");
        assert_eq!(b, &[9, 8, 7]);
        // The returned slices point into `buf` itself.
        let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(range.contains(&(s.as_ptr() as usize)));
        assert!(range.contains(&(b.as_ptr() as usize)));
        assert!(r.at_end());
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.u32(10);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bad_utf8_errors() {
        let mut w = Writer::new();
        w.u32(2);
        // raw invalid bytes for a "string"
        let mut buf = w.into_bytes();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }
}
