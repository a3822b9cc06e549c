//! The one checksum behind every framed byte: wire frames
//! (`hj-server::frame`), spill run files (`hj-spill::runfile`) and table
//! files ([`crate::tablefile`]) all record and verify [`checksum64`].
//!
//! It is XXH64 with seed 0 (Yann Collet's xxHash, 64-bit variant): a
//! published function with public test vectors, so a file or frame written
//! here can be checked by any other implementation.  The input is consumed
//! 32 bytes per step as four 8-byte words feeding four independent
//! multiply-rotate lanes — the lanes do not depend on each other, so the
//! processor overlaps their multiplies — then the lanes are merged, the
//! 0–31 trailing bytes are folded in, and the total length and a final
//! avalanche make every input bit reach every output bit.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per step of the main loop: one 8-byte word per lane.
const STRIPE_BYTES: usize = 32;

#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge_lane(hash: u64, lane: u64) -> u64 {
    (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// XXH64 (seed 0) of `bytes`.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(STRIPE_BYTES);
    let mut hash = if bytes.len() >= STRIPE_BYTES {
        let (mut v1, mut v2, mut v3, mut v4) = (P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1));
        for stripe in &mut stripes {
            v1 = round(v1, word(&stripe[0..8]));
            v2 = round(v2, word(&stripe[8..16]));
            v3 = round(v3, word(&stripe[16..24]));
            v4 = round(v4, word(&stripe[24..32]));
        }
        let merged = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(merged, merge_lane)
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        hash = (hash ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte word"));
        hash = (hash ^ u64::from(half).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The buffer xxHash's own `xxhsum` sanity check hashes prefixes of.
    fn sanity_buffer(len: usize) -> Vec<u8> {
        let mut state = 2_654_435_761u64;
        (0..len)
            .map(|_| {
                let byte = (state >> 56) as u8;
                state = state.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect()
    }

    #[test]
    fn published_known_answers() {
        // xxhsum's sanity table, seed 0: the empty input, 1, 4 and 14 bytes
        // (no stripe), 222 bytes (six stripes through all four lanes, then a
        // 30-byte tail).
        let buffer = sanity_buffer(222);
        assert_eq!(checksum64(&[]), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(&buffer[..1]), 0xE934_A84A_DB05_2768);
        assert_eq!(checksum64(&buffer[..4]), 0x9136_A0DC_A574_57EE);
        assert_eq!(checksum64(&buffer[..14]), 0x8282_DCC4_994E_35C8);
        assert_eq!(checksum64(&buffer), 0xB641_AE8C_B691_C174);
        // Widely quoted string vectors.
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(
            checksum64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
    }

    #[test]
    fn every_tail_length_after_two_stripes_matches_the_reference() {
        // Prefixes of the sanity buffer of 64..=95 bytes: two full stripes
        // through all four lanes plus every tail length 0..=31 (each mix of
        // 8-byte words, the 4-byte word and single bytes).  Values from an
        // independent implementation (LLVM's `llvm::xxHash64`).
        const EXPECTED: [u64; 32] = [
            0xEF55_8F8A_CAC2_B5CD,
            0xDE0F_20DC_2631_AF7A,
            0xCF1E_52ED_E1C5_05C4,
            0x0965_DF72_19D2_E741,
            0x1B83_78E9_23B2_47A7,
            0x43F2_B606_AD9B_A362,
            0xD9C3_4132_22F1_DEA4,
            0x3D6E_CAB2_BCFB_E3FF,
            0xEA85_73B6_0D5A_8800,
            0xE372_599E_31F8_CFFD,
            0x02B8_6794_A00B_DBE8,
            0xCA1A_21FB_2497_9810,
            0x60DF_F17B_EC07_766D,
            0xF4AF_7482_8DE6_862D,
            0x828E_4C8C_5257_CC15,
            0x91F7_F9D6_0082_99A0,
            0x99BD_5D25_EB21_1099,
            0xCB32_9A8F_102F_05BC,
            0x993A_0B6E_6D5D_F0CB,
            0x818F_4CEC_407D_8CF9,
            0xAF57_F8CD_340F_B1B6,
            0x5078_9F0F_60EB_AD3A,
            0xF321_4750_C1A6_455E,
            0x8DBE_8913_BE34_6D20,
            0xA130_814F_81F8_7E43,
            0x0023_276D_258E_DA58,
            0x0A05_71F7_69B4_0C93,
            0x14A2_F505_1E88_93C8,
            0x4FBB_E74E_0623_67B0,
            0x4B37_5CEF_5035_86FC,
            0x6AD4_B96E_4286_EB70,
            0xFF9F_46BD_CC64_4624,
        ];
        let buffer = sanity_buffer(96);
        for (tail, &expected) in EXPECTED.iter().enumerate() {
            assert_eq!(
                checksum64(&buffer[..64 + tail]),
                expected,
                "tail of {tail} bytes"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_4_kib_payload_changes_the_value() {
        let mut payload = sanity_buffer(4096);
        let clean = checksum64(&payload);
        for bit in 0..payload.len() * 8 {
            payload[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&payload), clean, "bit {bit} went unnoticed");
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(checksum64(&payload), clean);
    }

    #[test]
    fn trailing_zero_bytes_change_the_value() {
        for len in [0usize, 5, 32, 64, 100] {
            let mut payload = sanity_buffer(len);
            let mut seen = vec![checksum64(&payload)];
            for _ in 0..40 {
                payload.push(0);
                let next = checksum64(&payload);
                assert!(
                    !seen.contains(&next),
                    "{len} bytes plus {} zeros collides with a shorter padding",
                    payload.len() - len
                );
                seen.push(next);
            }
        }
    }

    #[test]
    fn swapping_two_words_changes_the_value() {
        let payload = sanity_buffer(256);
        let clean = checksum64(&payload);
        let swapped = |a: usize, b: usize| {
            let mut bytes = payload.clone();
            for i in 0..8 {
                bytes.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(bytes, payload, "words {a} and {b} are equal");
            checksum64(&bytes)
        };
        // Word w of the input feeds lane w % 4.
        for (a, b) in [(0, 4), (1, 9), (2, 30), (3, 7)] {
            assert_ne!(swapped(a, b), clean, "same-lane words {a} and {b}");
        }
        for (a, b) in [(0, 1), (2, 5), (3, 28), (6, 31)] {
            assert_ne!(swapped(a, b), clean, "cross-lane words {a} and {b}");
        }
    }
}
