//! Zeckendorf (Fibonacci-base) and order-k generalized Zeckendorf codecs.
//!
//! The classical Zeckendorf theorem writes every `n ≥ 0` uniquely as a sum of
//! non-consecutive Fibonacci numbers; reading the indicator string of the
//! summands gives a bijection between `{0, …, F_{d+2}−1}` and the `11`-free
//! words of length `d` — exactly the vertex set of the Fibonacci cube `Γ_d`.
//! Hsu's interconnection papers use this as the *node addressing scheme*.
//!
//! The order-k generalization (sums of k-bonacci numbers with no `k`
//! consecutive indicators) addresses the nodes of `Q_d(1^k)`.

use crate::word::{Word, MAX_LEN};

/// Fibonacci numbers with the paper's indexing: `F₁ = F₂ = 1`, `F₃ = 2`, …
///
/// Returns `F_i` for `i ≥ 0` (`F₀ = 0`).
///
/// # Panics
///
/// Panics on overflow past `u128` (first at `i = 187`).
pub fn fibonacci(i: usize) -> u128 {
    let (mut a, mut b) = (0u128, 1u128); // F_0, F_1
    for _ in 0..i {
        let next = a.checked_add(b).expect("Fibonacci overflow past u128");
        a = b;
        b = next;
    }
    a
}

/// Order-k Fibonacci (k-bonacci) sequence value `F^(k)_i` defined by
/// `F^(k)_i = 0` for `i ≤ 0`, `F^(k)_1 = 1`, and
/// `F^(k)_i = Σ_{j=1}^{k} F^(k)_{i−j}`.
///
/// For `k = 2` this reproduces [`fibonacci`].
pub fn kbonacci(k: usize, i: usize) -> u128 {
    assert!(k >= 2, "order must be ≥ 2");
    if i == 0 {
        return 0;
    }
    let mut window = vec![0u128; k];
    window[k - 1] = 1; // F_1
    if i == 1 {
        return 1;
    }
    let mut last = 1u128;
    for _ in 2..=i {
        let next = window.iter().fold(0u128, |acc, &x| {
            acc.checked_add(x).expect("k-bonacci overflow")
        });
        window.rotate_left(1);
        window[k - 1] = next;
        last = next;
    }
    last
}

/// Encodes `n` as the length-`d` Zeckendorf indicator word — an `11`-free
/// word `b₁…b_d` with `n = Σ b_i · F_{d+2−i}` where position `i` carries
/// weight `F_{d+2-i}` (so `b₁` weighs `F_{d+1}` … `b_d` weighs `F₂`).
///
/// This enumerates `V(Γ_d)`; returns `None` when `n ≥ F_{d+2}`.
///
/// Note: the *indicator-string* encoding is what matters for the graphs, and
/// the greedy algorithm guarantees no two consecutive `1`s.
pub fn zeckendorf_encode(n: u128, d: usize) -> Option<Word> {
    kzeckendorf_encode(2, n, d)
}

/// Decodes a Zeckendorf indicator word back to its integer.
///
/// Returns `None` when the word contains `11` (not a valid Zeckendorf form).
pub fn zeckendorf_decode(w: &Word) -> Option<u128> {
    kzeckendorf_decode(2, w)
}

/// Order-k Zeckendorf encoding: a length-`d` word avoiding `1^k` with
/// `n = Σ b_i · F^(k)_{d+1−i}` … with the *greedy* normal form, which is
/// exactly the `1^k`-free condition plus a carry constraint.
///
/// We use the counting-based unranking (position weights = number of
/// completions), which gives the clean bijection
/// `{0, …, |V(Q_d(1^k))|−1} ↔ V(Q_d(1^k))` in **lexicographic order**:
/// setting `b_i = 1` is chosen when `n` exceeds the count of words with
/// `b_i = 0` given the prefix. For `k = 2` this coincides with classical
/// Zeckendorf because `#{11-free words of length d} = F_{d+2}`.
pub fn kzeckendorf_encode(k: usize, n: u128, d: usize) -> Option<Word> {
    assert!(k >= 2, "order must be ≥ 2");
    assert!(d <= MAX_LEN, "length {d} exceeds {MAX_LEN}");
    // counts[j] = number of 1^k-free words of length j = F^(k)_{j+?}: compute
    // directly by the recurrence on "free words": T(j) = Σ_{i=1}^{k} T(j−i)
    // with T(0)=1 and T(j) counting words of length j with < k trailing ones
    // … simplest correct approach: DP on (length, run of trailing ones).
    let table = run_dp(k, d);
    let total = table[d][0];
    if n >= total {
        return None;
    }
    let mut r = n;
    let mut bits = 0u64;
    let mut run = 0usize; // current run of consecutive 1s ending at position i−1
    for i in 1..=d {
        // Words remaining if we place 0 here: run resets.
        let zero_cnt = table[d - i][0];
        if r < zero_cnt {
            bits <<= 1;
            run = 0;
        } else {
            r -= zero_cnt;
            bits = (bits << 1) | 1;
            run += 1;
            if run >= k {
                return None; // cannot happen for valid r
            }
        }
        let _ = i;
    }
    Some(Word::from_raw(bits, d))
}

/// Inverse of [`kzeckendorf_encode`]; `None` when `w` contains `1^k`.
pub fn kzeckendorf_decode(k: usize, w: &Word) -> Option<u128> {
    assert!(k >= 2, "order must be ≥ 2");
    let d = w.len();
    let table = run_dp(k, d);
    let mut n = 0u128;
    let mut run = 0usize;
    for i in 1..=d {
        if w.at(i) == 1 {
            n += table[d - i][0]; // all words with 0 at this position come first
            run += 1;
            if run >= k {
                return None;
            }
        } else {
            run = 0;
        }
    }
    Some(n)
}

/// `table[j][r]` = number of ways to append `j` letters after a context whose
/// maximal run of trailing ones has length `r`, never reaching `k` ones.
fn run_dp(k: usize, d: usize) -> Vec<Vec<u128>> {
    let mut table = vec![vec![0u128; k]; d + 1];
    for r in 0..k {
        table[0][r] = 1;
    }
    for j in 1..=d {
        for r in 0..k {
            // place 0: run resets; place 1: run+1 must stay < k.
            let mut acc = table[j - 1][0];
            if r + 1 < k {
                acc += table[j - 1][r + 1];
            }
            table[j][r] = acc;
        }
    }
    table
}

/// Number of `1^k`-free words of length `d` — `|V(Q_d(1^k))|` — via the run
/// DP (equals `F^(k)` shifted: for k = 2 it is `F_{d+2}`).
pub fn count_k_free(k: usize, d: usize) -> u128 {
    run_dp(k, d)[d][0]
}

/// Reusable positional-weight codec between node *ranks* and raw Zeckendorf
/// bit patterns, the arithmetic core of implicit (table-free) routing.
///
/// The counting-based unranking of [`kzeckendorf_encode`] shows that the rank
/// of a `1^k`-free word `b₁…b_d` in lexicographic order is a plain weighted
/// sum over its set bits:
///
/// ```text
/// rank(b) = Σ_{i : b_i = 1} W(d − i),   W(j) = #{1^k-free words of length j}
/// ```
///
/// because choosing `b_i = 1` skips exactly the `W(d − i)` words that place a
/// `0` at position `i` (the trailing-run context is irrelevant once the run
/// resets — only the `run = 0` column of the DP is ever added). For `k = 2`
/// the weights are Fibonacci numbers (`W(j) = F_{j+2}`) and this is classical
/// Zeckendorf arithmetic.
///
/// The codec precomputes the `d + 1` weights once (`O(d)` words of state) and
/// then converts in `O(d)` time with **no allocation**: [`RankCodec::decode`]
/// iterates set bits, [`RankCodec::encode`] replays the greedy scan. All
/// weights fit `u64` since there are at most `2^d ≤ 2^63` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankCodec {
    k: usize,
    d: usize,
    /// `weights[j]` = number of `1^k`-free words of length `j` (the `run = 0`
    /// DP column), i.e. the rank weight of a set bit at u64 position `j`.
    weights: Vec<u64>,
}

impl RankCodec {
    /// Builds the codec for `1^k`-free words of length `d`.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or `d > MAX_LEN`.
    pub fn new(k: usize, d: usize) -> RankCodec {
        assert!(k >= 2, "order must be ≥ 2");
        assert!(d <= MAX_LEN, "length {d} exceeds {MAX_LEN}");
        let table = run_dp(k, d);
        let weights = (0..=d)
            .map(|j| u64::try_from(table[j][0]).expect("counts of length ≤ 63 words fit u64"))
            .collect();
        RankCodec { k, d, weights }
    }

    /// Forbidden-run order `k`.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Word length `d`.
    pub fn len(&self) -> usize {
        self.d
    }

    /// `true` iff the codec addresses zero-length words only.
    pub fn is_empty(&self) -> bool {
        self.d == 0
    }

    /// Number of addressable words: `|V(Q_d(1^k))|`.
    pub fn total(&self) -> u64 {
        self.weights[self.d]
    }

    /// Heap bytes held by the codec — the entire per-lookup routing state.
    pub fn state_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<u64>()
    }

    /// The rank weight of a set bit at u64 position `j` (suffix length
    /// `j`): flipping bit `j` of a valid word moves its rank by exactly
    /// `weight(j)`, which is what lets neighbor ranks be computed
    /// incrementally without re-decoding.
    #[inline]
    pub fn weight(&self, j: usize) -> u64 {
        self.weights[j]
    }

    /// `true` iff `bits` is a valid address: fits in `d` bits and avoids a
    /// run of `k` ones. The run check is branch-free in `O(k)` word ops:
    /// and-ing `m` with `m >> 1` a total of `k − 1` times leaves a set bit
    /// exactly where `k` consecutive ones occurred.
    pub fn is_free(&self, bits: u64) -> bool {
        if self.d < 64 && (bits >> self.d) != 0 {
            return false;
        }
        let mut m = bits;
        for _ in 1..self.k {
            m &= m >> 1;
        }
        m == 0
    }

    /// Rank → raw bits of the `rank`-th `1^k`-free word (lexicographic), or
    /// `None` when `rank ≥ total()`. Bit `b_i` lands at u64 position `d − i`,
    /// matching [`Word::from_raw`].
    pub fn encode(&self, rank: u64) -> Option<u64> {
        if rank >= self.total() {
            return None;
        }
        let mut r = rank;
        let mut bits = 0u64;
        for i in 1..=self.d {
            let zero_cnt = self.weights[self.d - i];
            if r < zero_cnt {
                bits <<= 1;
            } else {
                r -= zero_cnt;
                bits = (bits << 1) | 1;
            }
        }
        Some(bits)
    }

    /// Raw bits → rank, or `None` when `bits` is not a valid address.
    pub fn decode(&self, bits: u64) -> Option<u64> {
        if !self.is_free(bits) {
            return None;
        }
        let mut n = 0u64;
        let mut m = bits;
        while m != 0 {
            n += self.weights[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        Some(n)
    }

    /// Rank → [`Word`] convenience wrapper around [`RankCodec::encode`].
    pub fn encode_word(&self, rank: u64) -> Option<Word> {
        self.encode(rank).map(|bits| Word::from_raw(bits, self.d))
    }
}

/// Constant-time unranking: a [`RankCodec`] plus a two-level table that
/// turns [`RankCodec::encode`]'s `d`-step greedy scan into five loads and
/// no loop.
///
/// Split each word at `l = ⌊d/2⌋` into a high part `p` (bits `≥ l`) and a
/// low part (bits `< l`). The rank is `Σ W(j)` over the set bits, and
/// `W(j)` depends only on `j`, so the rank is `start(p) + rank_l(low)`
/// with `start(p) = Σ_{set j ≥ l} W(j)` and `rank_l` the rank among
/// `l`-bit words. The words sharing a high part are contiguous in rank
/// order, so each valid high part owns one rank interval starting at
/// `start(p)`. The low parts it admits are the `l`-bit words whose
/// leading run of ones, added to `p`'s trailing run, stays below `k`:
/// in lexicographic (= rank) order that is a *prefix* of all `l`-bit
/// words. Hence
///
/// ```text
/// encode(r) = P[i] | S[r − start[i]],   i = the last prefix with start[i] ≤ r
/// ```
///
/// with `P` the valid high parts in order, `start` their interval starts
/// and `S` the `l`-bit words in rank order. `i` comes from one bucket
/// lookup `B[r >> s]` (the last prefix starting at or before the
/// bucket's first rank) and at most one step forward, because `2^s` is
/// at most the narrowest interval, so no bucket holds two starts.
///
/// Both `P` and `S` hold about `√total` words: at `Γ_24` (121 393 ranks)
/// the whole state is 11.3 KB, at `Γ_30` 48 KB, and it fits in L1
/// or L2 where the codec's scan costs `d` dependent steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTable {
    codec: RankCodec,
    /// `P`: the valid high parts, already shifted to their positions.
    prefixes: Vec<u64>,
    /// `start[i]`, the first rank of prefix `i`; one extra entry,
    /// `total()`, closes the last interval.
    starts: Vec<u64>,
    /// `S`: the `l`-bit `1^k`-free words in rank order.
    suffixes: Vec<u32>,
    /// `B[b]`: the last prefix with `start ≤ b << shift`.
    buckets: Vec<u32>,
    /// `s`: `2^s` is at most the narrowest prefix interval.
    shift: u32,
}

impl RankTable {
    /// Builds the table over `codec`'s words in `O(√total + total / 2^s)`
    /// time and space — about `2√total` entries.
    pub fn new(codec: RankCodec) -> RankTable {
        let (k, d) = (codec.order(), codec.len());
        let l = d / 2;
        let high = RankCodec::new(k, d - l);
        let low = RankCodec::new(k, l);
        let prefixes: Vec<u64> = (0..high.total())
            .map(|q| high.encode(q).expect("rank in range") << l)
            .collect();
        let mut starts: Vec<u64> = prefixes
            .iter()
            .map(|&p| {
                codec
                    .decode(p)
                    .expect("a free high part padded with zeros is free")
            })
            .collect();
        starts.push(codec.total());
        let suffixes = (0..low.total())
            .map(|q| {
                let bits = low.encode(q).expect("rank in range");
                u32::try_from(bits).expect("low half of a ≤ 63-bit word fits u32")
            })
            .collect();
        let narrowest = starts.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(1);
        let shift = narrowest.ilog2();
        let mut buckets = Vec::with_capacity(((codec.total() - 1) >> shift) as usize + 1);
        let mut i = 0usize;
        for b in 0..=(codec.total() - 1) >> shift {
            while starts[i + 1] <= b << shift {
                i += 1;
            }
            buckets.push(u32::try_from(i).expect("prefix count fits u32"));
        }
        RankTable {
            codec,
            prefixes,
            starts,
            suffixes,
            buckets,
            shift,
        }
    }

    /// The codec the table accelerates (weights, validity, decoding).
    #[inline]
    pub fn codec(&self) -> &RankCodec {
        &self.codec
    }

    /// Number of addressable words: `|V(Q_d(1^k))|`.
    #[inline]
    pub fn total(&self) -> u64 {
        self.codec.total()
    }

    /// Heap bytes held by the codec and the table together.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.codec.state_bytes()
            + (self.prefixes.len() + self.starts.len()) * size_of::<u64>()
            + (self.suffixes.len() + self.buckets.len()) * size_of::<u32>()
    }

    /// [`RankCodec::encode`] in constant time: the raw bits of the
    /// `rank`-th `1^k`-free word, or `None` when `rank ≥ total()`.
    #[inline]
    pub fn encode(&self, rank: u64) -> Option<u64> {
        if rank >= self.total() {
            return None;
        }
        let mut i = self.buckets[(rank >> self.shift) as usize] as usize;
        // The sentinel `starts[len] = total > rank` stops the step.
        if self.starts[i + 1] <= rank {
            i += 1;
        }
        Some(self.prefixes[i] | u64::from(self.suffixes[(rank - self.starts[i]) as usize]))
    }

    /// Mask of the positions where a `0 → 1` flip keeps the valid word
    /// `bits` `1^k`-free: the word's up-neighbours. Closed form for
    /// `k = 2` (a zero with no set neighbour); a scan for larger `k`.
    #[inline]
    pub fn free_flips(&self, bits: u64) -> u64 {
        let d = self.codec.len();
        let mask = (1u64 << d) - 1;
        if self.codec.order() == 2 {
            return !bits & !(bits << 1) & !(bits >> 1) & mask;
        }
        (0..d)
            .filter(|&j| bits & (1 << j) == 0 && self.codec.is_free(bits | (1 << j)))
            .fold(0, |m, j| m | (1 << j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::FactorAutomaton;
    use crate::word::word;

    #[test]
    fn fibonacci_values() {
        let expected = [0u128, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(fibonacci(i), e, "i={i}");
        }
    }

    #[test]
    fn kbonacci_reduces_to_fibonacci() {
        for i in 0..30 {
            assert_eq!(kbonacci(2, i), fibonacci(i), "i={i}");
        }
    }

    #[test]
    fn tribonacci_values() {
        // F^(3): 0, 1, 1, 2, 4, 7, 13, 24, 44, 81 (with F^(3)_2 = 1, F^(3)_3 = 2).
        let expected = [0u128, 1, 1, 2, 4, 7, 13, 24, 44, 81];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(kbonacci(3, i), e, "i={i}");
        }
    }

    #[test]
    fn count_free_matches_automaton() {
        for k in 2..=4usize {
            let aut = FactorAutomaton::new(Word::ones(k));
            for d in 0..=20usize {
                assert_eq!(count_k_free(k, d), aut.count_free(d), "k={k} d={d}");
            }
        }
    }

    #[test]
    fn encode_decode_bijection() {
        for k in 2..=4usize {
            for d in 0..=12usize {
                let total = count_k_free(k, d);
                let mut seen = std::collections::HashSet::new();
                for n in 0..total {
                    let w = kzeckendorf_encode(k, n, d).expect("in range");
                    assert!(!crate::factor::is_factor(&Word::ones(k), &w), "k={k} w={w}");
                    assert_eq!(kzeckendorf_decode(k, &w), Some(n), "k={k} d={d} n={n}");
                    assert!(seen.insert(w), "duplicate encoding for n={n}");
                }
                assert_eq!(kzeckendorf_encode(k, total, d), None);
            }
        }
    }

    #[test]
    fn encoding_is_lexicographic() {
        // n < m ⟺ encode(n) < encode(m) (lexicographic = numeric order).
        let d = 10;
        let total = count_k_free(2, d);
        let words: Vec<Word> = (0..total)
            .map(|n| zeckendorf_encode(n, d).unwrap())
            .collect();
        assert!(words.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn agrees_with_automaton_unrank() {
        // The Zeckendorf codec must match the generic automaton unranking.
        let aut = FactorAutomaton::new(word("11"));
        for d in 0..=11usize {
            for n in 0..count_k_free(2, d) {
                assert_eq!(zeckendorf_encode(n, d), aut.unrank(n, d), "d={d} n={n}");
            }
        }
    }

    #[test]
    fn rank_codec_matches_kzeckendorf() {
        for k in 2..=4usize {
            for d in 0..=12usize {
                let codec = RankCodec::new(k, d);
                let total = count_k_free(k, d);
                assert_eq!(u128::from(codec.total()), total, "k={k} d={d}");
                for n in 0..total {
                    let w = kzeckendorf_encode(k, n, d).expect("in range");
                    let bits = codec.encode(n as u64).expect("in range");
                    assert_eq!(bits, w.bits(), "k={k} d={d} n={n}");
                    assert!(codec.is_free(bits));
                    assert_eq!(codec.decode(bits), Some(n as u64));
                    assert_eq!(codec.encode_word(n as u64), Some(w));
                }
                assert_eq!(codec.encode(total as u64), None);
            }
        }
    }

    #[test]
    fn rank_codec_rejects_invalid_bits() {
        let codec = RankCodec::new(2, 6);
        assert_eq!(codec.decode(0b011000), None, "contains 11");
        assert_eq!(codec.decode(1 << 6), None, "out of length range");
        assert!(codec.decode(0b010101).is_some());
        let tri = RankCodec::new(3, 6);
        assert!(tri.decode(0b011000).is_some(), "11 fine for k=3");
        assert_eq!(tri.decode(0b011100), None, "111 forbidden");
    }

    #[test]
    fn rank_codec_state_is_linear() {
        let codec = RankCodec::new(2, 40);
        assert_eq!(codec.state_bytes(), 41 * 8);
        assert_eq!(codec.len(), 40);
        assert_eq!(codec.order(), 2);
        assert!(!codec.is_empty());
    }

    #[test]
    fn rank_table_matches_codec_on_every_rank() {
        for k in 2..=4usize {
            for d in 0..=20usize {
                let codec = RankCodec::new(k, d);
                let table = RankTable::new(codec.clone());
                for r in 0..codec.total() {
                    assert_eq!(table.encode(r), codec.encode(r), "k={k} d={d} r={r}");
                }
                assert_eq!(table.encode(codec.total()), None, "k={k} d={d}");
                assert_eq!(table.encode(u64::MAX), None, "k={k} d={d}");
            }
        }
    }

    #[test]
    fn rank_table_matches_codec_on_gamma_45() {
        // Γ_45 is the largest Fibonacci cube whose ids fit u32.
        let codec = RankCodec::new(2, 45);
        let table = RankTable::new(codec.clone());
        let total = codec.total();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let seeded = (0..10_000).map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % total
        });
        for r in [0, total - 1].into_iter().chain(seeded) {
            assert_eq!(table.encode(r), codec.encode(r), "r={r}");
        }
        assert_eq!(table.encode(total), None);
    }

    #[test]
    fn free_flips_are_the_valid_up_moves() {
        for k in 2..=4usize {
            for d in 0..=10usize {
                let codec = RankCodec::new(k, d);
                let table = RankTable::new(codec.clone());
                for r in 0..codec.total() {
                    let bits = codec.encode(r).unwrap();
                    let scan = (0..d)
                        .filter(|&j| bits & (1 << j) == 0 && codec.is_free(bits | (1 << j)))
                        .fold(0u64, |m, j| m | (1 << j));
                    assert_eq!(table.free_flips(bits), scan, "k={k} d={d} bits={bits:b}");
                }
            }
        }
    }

    #[test]
    fn decode_rejects_invalid() {
        assert_eq!(zeckendorf_decode(&word("0110")), None);
        assert_eq!(kzeckendorf_decode(3, &word("01110")), None);
        assert!(kzeckendorf_decode(3, &word("0110")).is_some());
    }

    #[test]
    fn classical_zeckendorf_weights() {
        // For the classical codec, position i carries weight F_{d+2-i}:
        // placing a 1 at position i skips the F_{(d-i)+2} words with 0 there.
        // Verify the arithmetic reading for several d.
        for d in 0..=10usize {
            for n in 0..count_k_free(2, d) {
                let w = zeckendorf_encode(n, d).unwrap();
                let weighted: u128 = (1..=d)
                    .map(|i| w.at(i) as u128 * fibonacci(d + 2 - i))
                    .sum();
                assert_eq!(weighted, n, "w={w}");
            }
        }
    }
}
