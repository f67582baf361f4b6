//! SHA-256 (FIPS 180-4) over `u32` words, in safe scalar Rust.
//!
//! The compile cache ([`crate::cache`]) keys results by the digest of a
//! word encoding of everything a compile reads, so the hasher takes words:
//! word `i` of the input is message word `i`, i.e. the message bytes are
//! the words' big-endian bytes and a full block is 16 words with no byte
//! shuffling.

/// A SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The compression function: folds one 16-word block into `h`.
fn compress(h: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    // Eight rounds per iteration with the variables renamed instead of
    // shifted, so each round touches only the two registers it changes.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$t])
                .wrapping_add(w[$t]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    for t in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, hh, t);
        round!(hh, a, b, c, d, e, f, g, t + 1);
        round!(g, hh, a, b, c, d, e, f, t + 2);
        round!(f, g, hh, a, b, c, d, e, t + 3);
        round!(e, f, g, hh, a, b, c, d, t + 4);
        round!(d, e, f, g, hh, a, b, c, t + 5);
        round!(c, d, e, f, g, hh, a, b, t + 6);
        round!(b, c, d, e, f, g, hh, a, t + 7);
    }
    for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *x = x.wrapping_add(y);
    }
}

/// The SHA-256 digest of a word message: word `i` is message word `i`, so
/// the message bytes are the words' big-endian bytes.
pub fn sha256_words(words: &[u32]) -> Digest {
    let mut h = H0;
    let mut blocks = words.chunks_exact(16);
    for b in &mut blocks {
        compress(&mut h, b.try_into().expect("16-word chunk"));
    }
    // The padding: the remaining words, the 0x80 marker byte, zeros, and
    // the bit length in the last two words of a block. It fits in one
    // block after at most 13 remaining words, and takes two otherwise.
    let rest = blocks.remainder();
    let mut tail = [0u32; 32];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x8000_0000;
    let n = if rest.len() < 14 { 16 } else { 32 };
    let bits = words.len() as u64 * 32;
    tail[n - 2] = (bits >> 32) as u32;
    tail[n - 1] = bits as u32;
    for b in tail[..n].chunks_exact(16) {
        compress(&mut h, b.try_into().expect("16-word chunk"));
    }
    let mut out = [0u8; 32];
    for (o, x) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&x.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A textbook byte-oriented SHA-256 (pad the byte message, then hash
    /// 64-byte blocks with a plain 64-round loop): the oracle the word
    /// hasher is checked against.
    fn reference(msg: &[u8]) -> Digest {
        let mut m = msg.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend((msg.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for chunk in m.chunks(64) {
            let mut w = [0u32; 64];
            for t in 0..16 {
                w[t] = u32::from_be_bytes(chunk[4 * t..4 * t + 4].try_into().unwrap());
            }
            for t in 16..64 {
                let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
                let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
                w[t] = w[t - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[t - 7])
                    .wrapping_add(s1);
            }
            let mut v = h;
            for t in 0..64 {
                let [a, b, c, d, e, f, g, hh] = v;
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[t])
                    .wrapping_add(w[t]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
            }
            for (x, y) in h.iter_mut().zip(v) {
                *x = x.wrapping_add(y);
            }
        }
        let mut out = [0u8; 32];
        for (o, x) in out.chunks_exact_mut(4).zip(h) {
            o.copy_from_slice(&x.to_be_bytes());
        }
        out
    }

    /// Words from the big-endian bytes of a message whose length is a
    /// multiple of four.
    fn words_of(bytes: &[u8]) -> Vec<u32> {
        assert_eq!(bytes.len() % 4, 0);
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
            .collect()
    }

    const EMPTY: &str = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    const ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    /// The 448-bit message: 56 bytes, 14 words, so its padding spills
    /// into a second block.
    const MSG_448: &[u8] = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const DIGEST_448: &str = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";

    #[test]
    fn fips_180_4_vectors() {
        for (msg, want) in [(&b""[..], EMPTY), (b"abc", ABC), (MSG_448, DIGEST_448)] {
            assert_eq!(hex(&reference(msg)), want, "reference on {msg:?}");
        }
        assert_eq!(hex(&sha256_words(&[])), EMPTY);
        assert_eq!(hex(&sha256_words(&words_of(MSG_448))), DIGEST_448);
    }

    #[test]
    #[ignore = "release-only: a million-byte message is slow in debug builds"]
    fn fips_180_4_million_a() {
        let words = vec![u32::from_be_bytes(*b"aaaa"); 250_000];
        assert_eq!(
            hex(&sha256_words(&words)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Every word length from 0 to 130 (eight blocks and the padding cases
    /// around each boundary: 13, 14, 15 and 16 words of a block used)
    /// against the byte-oriented reference on the same big-endian bytes.
    #[test]
    fn word_lengths_across_padding_boundaries_match_the_byte_reference() {
        let mut x = 0x9E37_79B9u32;
        let words: Vec<u32> = (0..130)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        for len in 0..=130 {
            let msg = &words[..len];
            let bytes: Vec<u8> = msg.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(sha256_words(msg), reference(&bytes), "{len} words");
        }
    }
}
