//! Zero-run compression for DRAM weight streams.
//!
//! Q1.7.8 weight images after ReLU-style pruning are dominated by runs of
//! zero words, and the MAC datapath treats a zero operand as the additive
//! identity (see DESIGN.md §13) — so a stream that *describes* its zero
//! runs instead of shipping them is bit-for-bit equivalent at the consumer
//! while moving far fewer words. This module provides the codec and the
//! transfer model a run-aware vault controller would implement:
//!
//! * [`encode`] / [`decode`] — an exact, lossless round-trip wire format,
//! * [`compressed_words`] / [`elidable_bits`] — how many channel words the
//!   encoded form occupies and how many bits of transfer it saves,
//!   the numbers the sparsity report attributes as *gated transfer energy*.
//!
//! The shipped timing model still transfers every word (classification
//! only, like the PE's gated-update accounting); the codec exists so the
//! savings figures rest on a format that demonstrably reconstructs the
//! stream, not on a hand wave.
//!
//! # Wire format
//!
//! A sequence of tokens, each one channel word:
//!
//! * `ZERO_RUN_TAG | n` — `n` consecutive zero words (`1 ≤ n ≤ 2^31`,
//!   stored as `n - 1` in the low 31 bits),
//! * any word with the top bit clear — itself, verbatim.
//!
//! Nonzero words whose own top bit is set cannot ride verbatim (they would
//! parse as tags), so the encoder prefixes them with `LITERAL_ESC` and
//! ships them raw in the following token. Both stock channel widths carry
//! 16-bit Q1.7.8 payloads packed two (HMC) or four (DDR3) to a word, so
//! escapes arise whenever the item in the high half is negative — common
//! enough that the escape path is first-class and tested.

/// Token tag: top bit set, next bit clear — a run of zero words.
const ZERO_RUN_TAG: u32 = 0x8000_0000;

/// Token tag: top two bits set — the next token is a verbatim word whose
/// own top bit is set.
const LITERAL_ESC: u32 = 0xC000_0000;

/// Longest zero run one token can describe.
const MAX_RUN: u64 = 1 << 30;

/// Encodes a word stream into its zero-run compressed form.
///
/// ```
/// use neurocube_dram::zerorun::{decode, encode};
/// let stream = [7, 0, 0, 0, 0xDEAD_BEEF, 0, 1];
/// let packed = encode(&stream);
/// assert!(packed.len() < stream.len() + 1);
/// assert_eq!(decode(&packed), stream);
/// ```
pub fn encode(words: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < words.len() {
        if words[i] == 0 {
            let mut run = 0u64;
            while i < words.len() && words[i] == 0 && run < MAX_RUN {
                run += 1;
                i += 1;
            }
            out.push(ZERO_RUN_TAG | (run - 1) as u32);
        } else if words[i] & ZERO_RUN_TAG != 0 {
            out.push(LITERAL_ESC);
            out.push(words[i]);
            i += 1;
        } else {
            out.push(words[i]);
            i += 1;
        }
    }
    out
}

/// Decodes a zero-run compressed stream back to the original words.
///
/// # Panics
///
/// Panics on a truncated escape sequence (an encoder never produces one).
pub fn decode(tokens: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = tokens[i];
        i += 1;
        if t & LITERAL_ESC == LITERAL_ESC {
            out.push(*tokens.get(i).expect("truncated literal escape"));
            i += 1;
        } else if t & ZERO_RUN_TAG != 0 {
            let run = u64::from(t & !ZERO_RUN_TAG) + 1;
            out.extend(std::iter::repeat_n(0u32, run as usize));
        } else {
            out.push(t);
        }
    }
    out
}

/// Channel words the encoded form of `words` occupies, without
/// materializing it.
pub fn compressed_words(words: &[u32]) -> u64 {
    let mut total = 0u64;
    let mut run = 0u64;
    for &w in words {
        if w == 0 {
            if run.is_multiple_of(MAX_RUN) {
                total += 1; // new run token
            }
            run += 1;
        } else {
            run = 0;
            total += if w & ZERO_RUN_TAG != 0 { 2 } else { 1 };
        }
    }
    total
}

/// Bits of channel transfer a run-aware controller would elide when
/// shipping `words` over a `word_bits`-wide channel: raw size minus
/// encoded size, floored at zero (incompressible streams cost extra
/// escape words; a real controller would ship those raw, so the savings
/// never go negative).
pub fn elidable_bits(words: &[u32], word_bits: u32) -> u64 {
    let raw = words.len() as u64;
    let packed = compressed_words(words);
    raw.saturating_sub(packed) * u64::from(word_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_exactly() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![0; 1000],
            vec![1, 2, 3],
            vec![0, 5, 0, 0, 6, 0, 0, 0],
            vec![0x8000_0001, 0, 0xFFFF_FFFF, 0xC000_0000],
            (0..257u32)
                .map(|i| if i % 3 == 0 { 0 } else { i << 20 })
                .collect(),
        ];
        for stream in cases {
            let packed = encode(&stream);
            assert_eq!(decode(&packed), stream, "stream {stream:?}");
            assert_eq!(packed.len() as u64, compressed_words(&stream));
        }
    }

    #[test]
    fn long_runs_split_at_token_capacity() {
        let n = MAX_RUN as usize + 17;
        let stream = vec![0u32; n];
        let packed = encode(&stream);
        assert_eq!(packed.len(), 2);
        assert_eq!(decode(&packed).len(), n);
    }

    #[test]
    fn escaped_literals_cost_two_words() {
        let stream = vec![0x9999_9999u32; 4];
        assert_eq!(compressed_words(&stream), 8);
        // Incompressible: savings floor at zero, never negative.
        assert_eq!(elidable_bits(&stream, 32), 0);
    }

    #[test]
    fn savings_grow_as_density_drops() {
        // 4096 words at decreasing nonzero density: elidable bits must be
        // monotone non-decreasing as the stream gets sparser.
        let mut prev = 0u64;
        for keep in [4usize, 8, 16, 64, 4096] {
            let stream: Vec<u32> = (0..4096u32)
                .map(|i| {
                    if (i as usize).is_multiple_of(keep) {
                        i + 1
                    } else {
                        0
                    }
                })
                .collect();
            let bits = elidable_bits(&stream, 32);
            assert!(bits >= prev, "keep={keep}: {bits} < {prev}");
            prev = bits;
        }
        assert!(prev > 0);
    }
}
