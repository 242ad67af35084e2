//! CRC-32 (IEEE, reflected; check value `0xCBF43926`), as the log seals
//! each record payload, so a test can frame records without the crate
//! exporting its own.

pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}
