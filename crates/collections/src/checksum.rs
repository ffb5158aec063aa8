//! CRC32 (IEEE 802.3) checksums for on-disk page integrity.
//!
//! The snapshot format (see `setsim-storage`) checksums every posting page
//! and metadata section so that a cold-start load can distinguish "this
//! index is damaged" from "this index is fine" instead of silently serving
//! wrong results. The polynomial is the reflected IEEE one (`0xEDB88320`),
//! the same used by zlib/gzip, computed with a 256-entry lookup table
//! built at compile time.

/// The 256-entry lookup table for the reflected IEEE polynomial.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_table();

/// CRC32 (IEEE, reflected) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feed more bytes into an in-progress CRC (raw register form). Start from
/// `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF` — or use [`crc32`]
/// for the one-shot form.
#[must_use]
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_byte_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        for i in 0..data.len() {
            let mut corrupt = data.to_vec();
            corrupt[i] ^= 0x01;
            assert_ne!(crc32(&corrupt), clean, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split into three uneven pieces";
        let mut crc = 0xFFFF_FFFF;
        crc = crc32_update(crc, &data[..7]);
        crc = crc32_update(crc, &data[7..20]);
        crc = crc32_update(crc, &data[20..]);
        assert_eq!(crc ^ 0xFFFF_FFFF, crc32(data));
    }

    proptest! {
        #[test]
        fn prop_any_flip_detected(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            idx in 0usize..10_000,
            bit in 0u8..8,
        ) {
            let i = idx % data.len();
            let mut corrupt = data.clone();
            corrupt[i] ^= 1 << bit;
            prop_assert_ne!(crc32(&corrupt), crc32(&data));
        }
    }
}
