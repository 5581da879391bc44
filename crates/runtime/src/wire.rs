//! The one byte codec (DESIGN.md "Serialisation"). Everything that leaves
//! a process — frames, blobs, journal records, stolen units — is written
//! with [`Writer`] and read back with [`Reader`]: big-endian integers,
//! `u32`-length-prefixed byte strings and word lists, and a trailing
//! [`fnv1a64`] checksum on every container that crosses a wire or a disk.
//! Reads are bounds-checked and counts are checked against the bytes
//! actually present before anything is allocated, so hostile or torn input
//! yields an [`Error`], never a panic or an over-allocation.
//!
//! The primitives are `#[inline]`: graph and aggregation blobs are written
//! and read one integer at a time from other crates, and a call per
//! integer costs the graph codec more than half its throughput.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// Bytes left over after the structure was fully read.
    TrailingBytes,
    /// A string field is not valid UTF-8.
    BadUtf8,
}

/// FNV-1a 64 over a byte slice — the wire checksum. Not cryptographic;
/// catches the bit flips and truncations the fault injector (and a flaky
/// transport or a torn write) produce.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Big-endian writer over a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_be_bytes());
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_be_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_be_bytes());
    }
    /// Sixteen bytes, high word first.
    #[inline]
    pub fn i128(&mut self, v: i128) {
        self.raw(&v.to_be_bytes());
    }
    /// Bytes with no length prefix (an already-encoded inner structure).
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// `u32` length, then the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    /// `u32` count, then each word.
    pub fn words(&mut self, words: &[u64]) {
        self.u32(words.len() as u32);
        for &w in words {
            self.u64(w);
        }
    }
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
    /// Appends the checksum of everything written so far and returns the
    /// sealed container.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Splits a sealed container into its body, the checksum it carries and
/// the checksum of the body: `(body, carried, computed)`.
pub fn unseal(sealed: &[u8]) -> Result<(&[u8], u64, u64), Error> {
    let at = sealed.len().checked_sub(8).ok_or(Error::Truncated)?;
    let (body, sum) = sealed.split_at(at);
    Ok((body, Reader::new(sum).u64()?, fnv1a64(body)))
}

/// Bounds-checked big-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        // `checked_add` keeps a hostile inner length from wrapping.
        let end = self.pos.checked_add(n).ok_or(Error::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(Error::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    /// Everything not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_be_bytes)
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_be_bytes)
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_be_bytes)
    }
    #[inline]
    pub fn i128(&mut self) -> Result<i128, Error> {
        self.array().map(i128::from_be_bytes)
    }
    /// Reads a `u32` element count and checks it against the bytes that
    /// remain, so a corrupt count cannot trigger a huge allocation.
    #[inline]
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / elem_bytes.max(1) {
            return Err(Error::Truncated);
        }
        Ok(n)
    }
    pub fn bytes(&mut self) -> Result<Vec<u8>, Error> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
    pub fn str(&mut self) -> Result<String, Error> {
        String::from_utf8(self.bytes()?).map_err(|_| Error::BadUtf8)
    }
    pub fn words(&mut self) -> Result<Vec<u64>, Error> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    #[inline]
    pub fn finish(self) -> Result<(), Error> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xF2AC);
        w.u32(u32::MAX - 1);
        w.u64(u64::MAX - 2);
        w.i128(-(1i128 << 100));
        w.bytes(&[1, 2, 3]);
        w.str("h\u{e9}llo");
        w.words(&[5, u64::MAX]);
        w.raw(&[9, 9]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xF2AC));
        assert_eq!(r.u32(), Ok(u32::MAX - 1));
        assert_eq!(r.u64(), Ok(u64::MAX - 2));
        assert_eq!(r.i128(), Ok(-(1i128 << 100)));
        assert_eq!(r.bytes(), Ok(vec![1, 2, 3]));
        assert_eq!(r.str().as_deref(), Ok("h\u{e9}llo"));
        assert_eq!(r.words(), Ok(vec![5, u64::MAX]));
        assert_eq!(r.rest(), &[9, 9]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncation_at_every_length_is_an_error() {
        let mut w = Writer::new();
        w.u32(1);
        w.str("abc");
        w.words(&[1, 2]);
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let got = r.u32().and_then(|_| r.str()).and_then(|_| r.words());
            assert_eq!(got, Err(Error::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_counts_cannot_overallocate() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.raw(&[0; 32]);
        let buf = w.finish();
        assert_eq!(Reader::new(&buf).words(), Err(Error::Truncated));
        assert_eq!(Reader::new(&buf).bytes(), Err(Error::Truncated));
        assert_eq!(Reader::new(&buf).count(12), Err(Error::Truncated));
        assert_eq!(Reader::new(&buf).take(usize::MAX), Err(Error::Truncated));
    }

    #[test]
    fn trailing_bytes_and_bad_utf8_are_named() {
        let mut r = Reader::new(&[0, 1]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(Error::TrailingBytes));
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        assert_eq!(Reader::new(&w.finish()).str(), Err(Error::BadUtf8));
    }

    #[test]
    fn seal_and_unseal_agree() {
        let mut w = Writer::new();
        w.u32(42);
        let mut sealed = w.seal();
        let (body, carried, computed) = unseal(&sealed).unwrap();
        assert_eq!(body, &[0, 0, 0, 42]);
        assert_eq!(carried, computed);
        sealed[1] ^= 1;
        let (_, carried, computed) = unseal(&sealed).unwrap();
        assert_ne!(carried, computed);
        assert_eq!(unseal(&sealed[..7]), Err(Error::Truncated));
    }
}
