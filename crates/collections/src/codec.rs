//! Delta + varint compression for posting lists.
//!
//! Disk-resident inverted lists (Section III-B stores 5 GB of them) are
//! conventionally stored compressed: ids ascending → delta-encode, then
//! LEB128 varints. This module provides the codec plus a block-structured
//! container with per-block skip keys, so a compressed list still supports
//! the `seek to first posting with key ≥ x` operation Length Boundedness
//! needs — only the blocks inside the window are decoded.

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

/// Decode 4 little-endian bytes at `pos`, advancing it. `None` on
/// truncation.
pub fn read_u32_le(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes))
}

/// Append `value` as 8 fixed little-endian bytes.
pub fn write_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Decode 8 little-endian bytes at `pos`, advancing it. `None` on
/// truncation.
pub fn read_u64_le(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes))
}

/// Append a varint-length-prefixed byte run (the framing used for every
/// variable-length field of the snapshot footer).
pub fn write_bytes(out: &mut Vec<u8>, data: &[u8]) {
    write_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Decode a varint-length-prefixed byte run at `pos`, advancing it.
/// `None` on truncation or on a length that exceeds the remaining buffer.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = read_varint(buf, pos)?;
    let len = usize::try_from(len).ok()?;
    let run = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(run)
}

/// Append a varint-length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Decode a varint-length-prefixed UTF-8 string at `pos`, advancing it.
/// `None` on truncation or invalid UTF-8.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    std::str::from_utf8(read_bytes(buf, pos)?).ok()
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
        let mut pos = 0;
        assert_eq!(read_u32_le(&buf, &mut pos), Some(0xDEAD_BEEF));
        assert_eq!(read_u64_le(&buf, &mut pos), Some(u64::MAX - 7));
        assert_eq!(pos, buf.len());
        // Truncated reads fail without advancing past the end.
        let mut pos = 0;
        assert_eq!(read_u64_le(&buf[..3], &mut pos), None);
    }

    #[test]
    fn framed_bytes_round_trip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"");
        write_bytes(&mut buf, b"payload");
        write_str(&mut buf, "grüße");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos), Some(&b""[..]));
        assert_eq!(read_bytes(&buf, &mut pos), Some(&b"payload"[..]));
        assert_eq!(read_str(&buf, &mut pos), Some("grüße"));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn framed_bytes_reject_overlong_length() {
        // A length prefix claiming more bytes than remain must fail, not
        // slice out of bounds.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000);
        buf.extend_from_slice(b"short");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos), None);
        // Same for a length that overflows usize arithmetic.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos), None);
    }

    #[test]
    fn framed_str_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xFF, 0xFE]);
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos), None);
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
