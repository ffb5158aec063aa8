//! Delta + varint compression for posting lists, and the one bounded
//! reader every persisted and wire decoder reads through.
//!
//! Disk-resident inverted lists (Section III-B stores 5 GB of them) are
//! conventionally stored compressed: ids ascending → delta-encode, then
//! LEB128 varints. This module provides the codec plus a block-structured
//! container with per-block skip keys, so a compressed list still supports
//! the `seek to first posting with key ≥ x` operation Length Boundedness
//! needs — only the blocks inside the window are decoded.
//!
//! The writers (`write_*`) append fields; [`ByteReader`] reads them back,
//! and every decoder of a snapshot footer, manifest, delta log or wire
//! frame reads through it. Those bytes come from outside the program, so
//! the reader decides once, for every format, how a count is bounded
//! ([`ByteReader::count`] refuses a count the bytes left cannot hold) and
//! how an encoding ends ([`ByteReader::finish`] refuses trailing bytes).
//! [`read_varint`] stays public for the per-posting loops of block
//! decoders, whose entry counts were bounded when their directory was read.

use std::fmt;

/// Append `value` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `pos`, advancing it. Returns `None` on
/// truncated or oversized (> 10 byte) input.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Append `value` as 4 fixed little-endian bytes (header/trailer fields
/// that must be locatable at fixed offsets, unlike varints).
pub fn write_u32_le(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Append `value` as 8 fixed little-endian bytes.
pub fn write_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Append a varint-length-prefixed byte run (the framing used for every
/// variable-length field of the snapshot footer).
pub fn write_bytes(out: &mut Vec<u8>, data: &[u8]) {
    write_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Why a [`ByteReader`] refused a field. Each case carries the byte
/// offset of the field, except [`Trailing`](Self::Trailing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ends inside the field (or a varint runs past 10 bytes).
    Truncated(usize),
    /// A count claims more items than the bytes after it can hold.
    Count(usize),
    /// A boolean byte is neither 0 nor 1.
    Bool(usize),
    /// A varint does not fit in a `u32`.
    U32(usize),
    /// A string is not UTF-8.
    Utf8(usize),
    /// This many bytes follow the last field.
    Trailing(usize),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, n) = match *self {
            ReadError::Truncated(at) => ("input ends inside the field at byte", at),
            ReadError::Count(at) => ("bytes left cannot hold the count at byte", at),
            ReadError::Bool(at) => ("not a boolean: the byte at", at),
            ReadError::U32(at) => ("u32 overflow: the varint at byte", at),
            ReadError::Utf8(at) => ("not UTF-8: the string at byte", at),
            ReadError::Trailing(extra) => ("trailing bytes after the last field:", extra),
        };
        write!(f, "{what} {n}")
    }
}

impl std::error::Error for ReadError {}

/// A bounds-checked cursor over bytes from outside the program.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not read yet.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let at = self.pos;
        let run = at
            .checked_add(n)
            .and_then(|end| self.buf.get(at..end))
            .ok_or(ReadError::Truncated(at))?;
        self.pos += n;
        Ok(run)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let at = self.pos;
        self.take(N)?
            .try_into()
            .map_err(|_| ReadError::Truncated(at))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// One byte that must be 0 (`false`) or 1 (`true`).
    pub fn bool(&mut self) -> Result<bool, ReadError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ReadError::Bool(self.pos - 1)),
        }
    }

    /// 4 little-endian bytes.
    pub fn u32_le(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// 8 little-endian bytes.
    pub fn u64_le(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let at = self.pos;
        read_varint(self.buf, &mut self.pos).ok_or(ReadError::Truncated(at))
    }

    /// A LEB128 varint that must fit in a `u32`.
    pub fn varint_u32(&mut self) -> Result<u32, ReadError> {
        let at = self.pos;
        u32::try_from(self.varint()?).map_err(|_| ReadError::U32(at))
    }

    /// A varint-length-prefixed byte run ([`write_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let at = self.pos;
        let len = usize::try_from(self.varint()?).map_err(|_| ReadError::Truncated(at))?;
        self.take(len)
    }

    /// A varint-length-prefixed UTF-8 string ([`write_str`]).
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let at = self.pos;
        std::str::from_utf8(self.bytes()?).map_err(|_| ReadError::Utf8(at))
    }

    /// The next `n` bytes as a UTF-8 string (its length stored apart).
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, ReadError> {
        let at = self.pos;
        std::str::from_utf8(self.take(n)?).map_err(|_| ReadError::Utf8(at))
    }

    /// A varint count of items that each take at least `min_item_bytes`
    /// (1 if given 0) of the bytes after it. A count those bytes cannot
    /// hold is refused, so what is returned can size an allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let at = self.pos;
        let count = self.varint()?;
        self.bound(at, count, min_item_bytes)
    }

    /// [`count`](Self::count) stored as 4 little-endian bytes.
    pub fn count_u32_le(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let at = self.pos;
        let count = self.u32_le()?;
        self.bound(at, u64::from(count), min_item_bytes)
    }

    /// [`count`](Self::count) stored as 8 little-endian bytes.
    pub fn count_u64_le(&mut self, min_item_bytes: usize) -> Result<usize, ReadError> {
        let at = self.pos;
        let count = self.u64_le()?;
        self.bound(at, count, min_item_bytes)
    }

    fn bound(&self, at: usize, count: u64, min_item_bytes: usize) -> Result<usize, ReadError> {
        usize::try_from(count)
            .ok()
            .filter(|n| {
                n.checked_mul(min_item_bytes.max(1))
                    .is_some_and(|need| need <= self.remaining())
            })
            .ok_or(ReadError::Count(at))
    }

    /// Refuse any byte left after the last field.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ReadError::Trailing(extra)),
        }
    }
}

/// One compressed entry: a `(key, id)` pair where keys ascend (ties broken
/// by ascending id). For weight-sorted posting lists the key is the
/// posting length's order-preserving bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecEntry {
    /// Ascending sort key (e.g. `f64::to_bits` of a non-negative length).
    pub key: u64,
    /// Payload id.
    pub id: u32,
}

/// A compressed, block-structured list of `(key, id)` entries.
///
/// Entries are grouped into blocks of `block_size`; within a block, keys
/// are delta-encoded against the previous entry and ids are stored raw as
/// varints. A per-block directory stores each block's first key and byte
/// offset, giving `O(log #blocks)` seeks plus one partial block decode.
#[derive(Debug, Clone)]
pub struct CompressedList {
    data: Vec<u8>,
    /// `(first key, byte offset, entry count)` per block.
    directory: Vec<(u64, u32, u32)>,
    len: usize,
    block_size: usize,
}

impl CompressedList {
    /// Compress `entries`, which must be sorted ascending by `(key, id)`.
    ///
    /// # Panics
    /// Panics if entries are unsorted or `block_size == 0`.
    pub fn build(entries: &[CodecEntry], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        for w in entries.windows(2) {
            assert!(
                (w[0].key, w[0].id) <= (w[1].key, w[1].id),
                "entries must be sorted"
            );
        }
        let mut data = Vec::new();
        let mut directory = Vec::new();
        for block in entries.chunks(block_size) {
            directory.push((block[0].key, data.len() as u32, block.len() as u32));
            let mut prev_key = block[0].key;
            for (i, e) in block.iter().enumerate() {
                let delta = if i == 0 { e.key } else { e.key - prev_key };
                write_varint(&mut data, delta);
                write_varint(&mut data, u64::from(e.id));
                prev_key = e.key;
            }
        }
        Self {
            data,
            directory,
            len: entries.len(),
            block_size,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in bytes (payload + directory).
    pub fn size_bytes(&self) -> usize {
        self.data.len() + self.directory.len() * std::mem::size_of::<(u64, u32, u32)>()
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Decode block `b`, appending its entries to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the block's varint stream is truncated. The data was
    /// produced by [`Self::encode`] in this process (the codec is not a
    /// persistence format), so truncation means memory corruption — not
    /// a condition to propagate.
    #[allow(clippy::panic)] // why: the contract is the `# Panics` section above
    fn decode_block(&self, b: usize, out: &mut Vec<CodecEntry>) {
        let (_, offset, count) = self.directory[b];
        let mut pos = offset as usize;
        let mut key = 0u64;
        for i in 0..count {
            let Some(delta) = read_varint(&self.data, &mut pos) else {
                panic!("corrupt block {b}: truncated key varint")
            };
            key = if i == 0 { delta } else { key + delta };
            let Some(id) = read_varint(&self.data, &mut pos) else {
                panic!("corrupt block {b}: truncated id varint")
            };
            out.push(CodecEntry { key, id: id as u32 });
        }
    }

    /// Decode everything.
    pub fn decode_all(&self) -> Vec<CodecEntry> {
        let mut out = Vec::with_capacity(self.len);
        for b in 0..self.directory.len() {
            self.decode_block(b, &mut out);
        }
        out
    }

    /// Iterate over entries with `key ≥ min_key`, decoding only the blocks
    /// that can contain them. Returns the entries in order plus the number
    /// of blocks decoded (for I/O accounting).
    pub fn seek(&self, min_key: u64) -> (Vec<CodecEntry>, usize) {
        if self.directory.is_empty() {
            return (Vec::new(), 0);
        }
        // Last block whose first key ≤ min_key could straddle the bound.
        let start_block = self
            .directory
            .partition_point(|&(first, _, _)| first < min_key)
            .saturating_sub(1);
        let mut out = Vec::new();
        let mut decoded = 0;
        for b in start_block..self.directory.len() {
            self.decode_block(b, &mut out);
            decoded += 1;
        }
        out.retain(|e| e.key >= min_key);
        (out, decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_sizes() {
        let size = |v: u64| {
            let mut b = Vec::new();
            write_varint(&mut b, v);
            b.len()
        };
        assert_eq!(size(0), 1);
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn read_varint_rejects_truncation() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), None);
    }

    fn entries(n: u64) -> Vec<CodecEntry> {
        (0..n)
            .map(|i| CodecEntry {
                key: i * 37,
                id: (i % 97) as u32 + (i as u32) * 3,
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let e = entries(500);
        let c = CompressedList::build(&e, 64);
        assert_eq!(c.len(), 500);
        assert_eq!(c.decode_all(), e);
    }

    #[test]
    fn compression_beats_raw_for_small_deltas() {
        let e: Vec<CodecEntry> = (0..10_000u64)
            .map(|i| CodecEntry {
                key: i,
                id: i as u32,
            })
            .collect();
        let c = CompressedList::build(&e, 128);
        let raw = e.len() * std::mem::size_of::<CodecEntry>();
        assert!(
            c.size_bytes() * 3 < raw,
            "compressed {} vs raw {raw}",
            c.size_bytes()
        );
    }

    #[test]
    fn seek_decodes_partial_blocks() {
        let e = entries(1_000);
        let c = CompressedList::build(&e, 50);
        let target = e[700].key;
        let (got, decoded) = c.seek(target);
        let want: Vec<CodecEntry> = e.iter().copied().filter(|x| x.key >= target).collect();
        assert_eq!(got, want);
        assert!(decoded <= 7, "decoded {decoded} blocks, expected ~6");
    }

    #[test]
    fn seek_past_end_and_before_start() {
        let e = entries(100);
        let c = CompressedList::build(&e, 10);
        let (all, _) = c.seek(0);
        assert_eq!(all.len(), 100);
        let (none, _) = c.seek(u64::MAX);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_list() {
        let c = CompressedList::build(&[], 16);
        assert!(c.is_empty());
        assert!(c.decode_all().is_empty());
        assert_eq!(c.seek(0).0.len(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_input_panics() {
        let _ = CompressedList::build(
            &[CodecEntry { key: 5, id: 0 }, CodecEntry { key: 3, id: 0 }],
            4,
        );
    }

    #[test]
    fn float_keys_preserve_order() {
        // The intended usage: f64 lengths via to_bits (non-negative floats
        // compare like their bit patterns).
        let lens = [0.5f64, 1.0, 1.5, 2.25, 10.0, 1e9];
        let e: Vec<CodecEntry> = lens
            .iter()
            .enumerate()
            .map(|(i, l)| CodecEntry {
                key: l.to_bits(),
                id: i as u32,
            })
            .collect();
        let c = CompressedList::build(&e, 2);
        let (from, _) = c.seek(1.5f64.to_bits());
        assert_eq!(from.len(), 4);
        assert_eq!(f64::from_bits(from[0].key), 1.5);
    }

    #[test]
    fn fixed_ints_round_trip() {
        let mut buf = Vec::new();
        write_u32_le(&mut buf, 0xDEAD_BEEF);
        write_u64_le(&mut buf, u64::MAX - 7);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32_le(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64_le(), Ok(u64::MAX - 7));
        assert_eq!(r.finish(), Ok(()));
        // Truncated reads fail without advancing past the end.
        let mut r = ByteReader::new(&buf[..3]);
        assert_eq!(r.u64_le(), Err(ReadError::Truncated(0)));
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn framed_bytes_round_trip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"");
        write_bytes(&mut buf, b"payload");
        write_str(&mut buf, "grüße");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(), Ok(&b""[..]));
        assert_eq!(r.bytes(), Ok(&b"payload"[..]));
        assert_eq!(r.str(), Ok("grüße"));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn framed_bytes_reject_overlong_length() {
        // A length prefix claiming more bytes than remain must fail, not
        // slice out of bounds.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000);
        buf.extend_from_slice(b"short");
        assert!(matches!(
            ByteReader::new(&buf).bytes(),
            Err(ReadError::Truncated(_))
        ));
        // Same for a length that overflows usize arithmetic.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(
            ByteReader::new(&buf).bytes(),
            Err(ReadError::Truncated(_))
        ));
    }

    #[test]
    fn framed_str_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xFF, 0xFE]);
        assert_eq!(ByteReader::new(&buf).str(), Err(ReadError::Utf8(0)));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // Three items of at least two bytes fit in six bytes, not five.
        assert_eq!(ByteReader::new(&[3, 0, 0, 0, 0, 0, 0]).count(2), Ok(3));
        assert_eq!(
            ByteReader::new(&[3, 0, 0, 0, 0, 0]).count(2),
            Err(ReadError::Count(0))
        );
        assert_eq!(ByteReader::new(&[0]).count(2), Ok(0));
        // No product overflows: the largest counts are refused outright.
        let max = [&u64::MAX.to_le_bytes()[..], &[0; 64]].concat();
        assert!(ByteReader::new(&max).count_u64_le(8).is_err());
        assert!(ByteReader::new(&u32::MAX.to_le_bytes())
            .count_u32_le(1)
            .is_err());
        // A minimum item size of 0 still needs a byte per item.
        assert!(ByteReader::new(&[5, 0, 0]).count(0).is_err());
    }

    #[test]
    fn booleans_u32_varints_and_trailing_bytes_are_typed() {
        let mut r = ByteReader::new(&[1, 0, 2]);
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.bool(), Err(ReadError::Bool(2)));
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(ByteReader::new(&buf).varint_u32(), Err(ReadError::U32(0)));
        let mut r = ByteReader::new(b"abc");
        assert_eq!(r.utf8(2), Ok("ab"));
        assert_eq!(r.finish(), Err(ReadError::Trailing(1)));
    }

    proptest! {
        #[test]
        fn prop_varint_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }

        #[test]
        fn prop_list_round_trips(
            mut keys in proptest::collection::vec(any::<u32>(), 0..300),
            block in 1usize..64,
        ) {
            keys.sort_unstable();
            let e: Vec<CodecEntry> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| CodecEntry { key: u64::from(k), id: i as u32 })
                .collect();
            let c = CompressedList::build(&e, block);
            prop_assert_eq!(c.decode_all(), e);
        }

        #[test]
        fn prop_seek_matches_filter(
            mut keys in proptest::collection::vec(0u64..10_000, 1..300),
            block in 1usize..64,
            probe in 0u64..10_000,
        ) {
            keys.sort_unstable();
            let e: Vec<CodecEntry> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| CodecEntry { key: k, id: i as u32 })
                .collect();
            let c = CompressedList::build(&e, block);
            let (got, _) = c.seek(probe);
            let want: Vec<CodecEntry> =
                e.iter().copied().filter(|x| x.key >= probe).collect();
            prop_assert_eq!(got, want);
        }
    }
}
