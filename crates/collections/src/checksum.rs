//! CRC32 (IEEE 802.3) checksums for on-disk page integrity.
//!
//! The snapshot format (see `setsim-storage`) checksums every posting page
//! and metadata section so that a cold-start load can distinguish "this
//! index is damaged" from "this index is fine" instead of silently serving
//! wrong results. The polynomial is the reflected IEEE one (`0xEDB88320`),
//! the same used by zlib/gzip, computed by slicing-by-8: eight 256-entry
//! lookup tables, built at compile time, fold eight input bytes per step
//! (Kounavis & Berry's scheme; output identical to the bytewise table).

/// The eight slicing tables for the reflected IEEE polynomial. Table 0 is
/// the classic bytewise table; table `k` advances a byte's contribution
/// through `k` further zero bytes, so one step can fold eight bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

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
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(c[4])]
            ^ t2[usize::from(c[5])]
            ^ t1[usize::from(c[6])]
            ^ t0[usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
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

    /// The bytewise one-table CRC the slicing kernel must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_kernel_matches_bytewise_reference() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=70 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
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
