//! `pyaes`: AES-128 in CTR mode, implemented in pure software.
//!
//! FunctionBench's `pyaes` workload runs a pure-Python AES; the point of the
//! benchmark is *software* block encryption (table-free, constant work per
//! byte), not hardware AES-NI throughput. This is a straightforward,
//! from-scratch AES-128 with the standard S-box, used in CTR mode over a
//! deterministically generated plaintext stream.

use super::fold;
use faasrail_stats::rng::{Rng, SplitMix64};

/// The AES S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// xtime: multiply by 2 in GF(2^8).
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Expanded AES-128 key schedule: 11 round keys of 16 bytes.
fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut rk = [[0u8; 16]; 11];
    rk[0] = *key;
    for round in 1..11 {
        let prev = rk[round - 1];
        let mut t = [prev[12], prev[13], prev[14], prev[15]];
        // RotWord + SubWord + Rcon
        t.rotate_left(1);
        for b in &mut t {
            *b = SBOX[*b as usize];
        }
        t[0] ^= RCON[round - 1];
        for i in 0..4 {
            rk[round][i] = prev[i] ^ t[i];
        }
        for i in 4..16 {
            rk[round][i] = prev[i] ^ rk[round][i - 4];
        }
    }
    rk
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// ShiftRows on column-major state (byte i holds row i%4, col i/4).
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for col in 0..4 {
        for row in 1..4 {
            state[col * 4 + row] = s[((col + row) % 4) * 4 + row];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a = [state[col * 4], state[col * 4 + 1], state[col * 4 + 2], state[col * 4 + 3]];
        let t = a[0] ^ a[1] ^ a[2] ^ a[3];
        state[col * 4] = a[0] ^ t ^ xtime(a[0] ^ a[1]);
        state[col * 4 + 1] = a[1] ^ t ^ xtime(a[1] ^ a[2]);
        state[col * 4 + 2] = a[2] ^ t ^ xtime(a[2] ^ a[3]);
        state[col * 4 + 3] = a[3] ^ t ^ xtime(a[3] ^ a[0]);
    }
}

/// Encrypt one 16-byte block with the expanded key.
pub fn encrypt_block(block: &[u8; 16], rk: &[[u8; 16]; 11]) -> [u8; 16] {
    let mut state = *block;
    add_round_key(&mut state, &rk[0]);
    #[allow(clippy::needless_range_loop)] // round number is the crypto-spec index
    for round in 1..10 {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, &rk[round]);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &rk[10]);
    state
}

/// Encrypt `bytes` of synthetic plaintext with AES-128-CTR; returns a
/// checksum of the ciphertext stream.
pub fn run(bytes: u32) -> u64 {
    let key: [u8; 16] = *b"faasrail-aes-key";
    let rk = expand_key(&key);
    let mut data_gen = SplitMix64::new(0xAE5_0001 ^ bytes as u64);
    let blocks = (bytes as u64).div_ceil(16);
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for ctr in 0..blocks {
        // CTR keystream block.
        let mut counter = [0u8; 16];
        counter[..8].copy_from_slice(&ctr.to_be_bytes());
        counter[8..].copy_from_slice(&0xF0F0_F0F0_0D0D_0D0Du64.to_be_bytes());
        let keystream = encrypt_block(&counter, &rk);
        // Synthetic plaintext block XOR keystream.
        let p0 = data_gen.next_u64().to_le_bytes();
        let p1 = data_gen.next_u64().to_le_bytes();
        for i in 0..8 {
            acc = fold(acc, (keystream[i] ^ p0[i]) as u64);
            acc = fold(acc, (keystream[8 + i] ^ p1[i]) as u64);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let rk = expand_key(&key);
        assert_eq!(encrypt_block(&plaintext, &rk), expected);
    }

    /// FIPS-197 Appendix A.1 key-expansion spot checks.
    #[test]
    fn key_expansion_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key);
        // w4..w7 (round key 1) from the spec.
        assert_eq!(
            rk[1],
            [
                0xa0, 0xfa, 0xfe, 0x17, 0x88, 0x54, 0x2c, 0xb1, 0x23, 0xa3, 0x39, 0x39, 0x2a, 0x6c,
                0x76, 0x05
            ]
        );
        // Final round key (w40..w43).
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }

    #[test]
    fn ctr_deterministic_and_size_sensitive() {
        assert_eq!(run(1024), run(1024));
        assert_ne!(run(1024), run(1040));
    }

    #[test]
    fn partial_block_rounds_up() {
        // 17 bytes → 2 blocks; must differ from 16 and 32.
        assert_ne!(run(16), run(17));
        assert_ne!(run(17), run(32));
    }

    #[test]
    fn xtime_known_values() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47); // overflow path: 0x15c ^ 0x11b
    }
}
