//! Pass B's draws: the xoshiro256++ streams of a group of source rows, one
//! per lane, and the candidates they leave (`docs/ARCHITECTURE.md`,
//! "Decode kernel").
//!
//! One generic body, [`draw_lanes`], steps every stream of the group at
//! once. It runs on [`Lanes`]: eight `u64` in one 512-bit register on
//! AVX-512, two 256-bit ones on AVX2, and a plain array on the baseline.
//! Every operation is on integers, so every instruction set gives the same
//! bits, and those are `StdRng`'s.

use super::{splitmix64, DRAW_ROWS, PHI};
use vrdag_tensor::simd::Isa;

/// The xoshiro256++ streams of the rows `i0..i0 + DRAW_ROWS`, one per
/// lane: lane `r` gives, output for output, what
/// `StdRng::seed_from_u64(splitmix64(seed ^ (i0 + r)·φ))` gives. The state
/// is held word by word, `s[w][r]` for word `w` of lane `r`, so that one
/// step of every stream is a few vector operations.
pub(super) struct RowStreams {
    s: [[u64; DRAW_ROWS]; 4],
}

impl RowStreams {
    pub(super) fn new(seed: u64, i0: usize) -> Self {
        let mut s = [[0; DRAW_ROWS]; 4];
        for r in 0..DRAW_ROWS {
            // `SeedableRng::seed_from_u64`: four successive `splitmix64`
            // outputs, the all-zero state nudged as `StdRng::from_seed` does.
            let x = splitmix64(seed ^ ((i0 + r) as u64).wrapping_mul(PHI));
            let mut words =
                std::array::from_fn(|w| splitmix64(x.wrapping_add(PHI.wrapping_mul(w as u64))));
            if words == [0; 4] {
                words = [PHI, 1, 2, 3];
            }
            for w in 0..4 {
                s[w][r] = words[w];
            }
        }
        RowStreams { s }
    }

    /// The next output of every lane. Every stream steps but lane `hold`'s
    /// (none when `hold ≥ DRAW_ROWS`): its output is not drawn, and comes
    /// again at its next step.
    pub(super) fn next_except(&mut self, hold: usize) -> [u64; DRAW_ROWS] {
        let old = self.s;
        let out = step(&mut self.s);
        if hold < DRAW_ROWS {
            for (words, old) in self.s.iter_mut().zip(old) {
                words[hold] = old[hold];
            }
        }
        out
    }
}

/// One xoshiro256++ step of every lane of the state `[s0, s1, s2, s3]`;
/// returns the outputs. The operations are `StdRng::next_u64`'s, in its
/// order.
#[inline(always)]
fn step<V: Lanes>([s0, s1, s2, s3]: &mut [V; 4]) -> V {
    let out = s0.add(*s3).rotl(23).add(*s0);
    let t = s1.shl(17);
    *s2 = s2.xor(*s0);
    *s3 = s3.xor(*s1);
    *s1 = s1.xor(*s2);
    *s0 = s0.xor(*s3);
    *s2 = s2.xor(t);
    *s3 = s3.rotl(45);
    out
}

/// The candidates of a group of rows: for lane `r`, the destinations
/// `js[r·stride..][..lens[r]]`, ascending, and their draws' top 53 bits
/// `ms[r·stride..][..lens[r]]`.
pub(super) struct Candidates {
    js: Vec<u32>,
    ms: Vec<u64>,
    lens: [usize; DRAW_ROWS],
    stride: usize,
}

impl Candidates {
    /// Room for `stride` candidates in each of the lanes.
    pub(super) fn new(stride: usize) -> Self {
        let (js, ms) = (vec![0; DRAW_ROWS * stride], vec![0; DRAW_ROWS * stride]);
        Candidates { js, ms, lens: [0; DRAW_ROWS], stride }
    }

    /// Lane `r`'s candidates: their destinations and their draws' top 53
    /// bits.
    pub(super) fn row(&self, r: usize) -> (&[u32], &[u64]) {
        let at = r * self.stride;
        (&self.js[at..][..self.lens[r]], &self.ms[at..][..self.lens[r]])
    }

    /// The number of candidates in all the lanes.
    pub(super) fn len(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Keeps the pair `(i0 + r, j)` of each lane `r` set in `lanes` whose
    /// output `out[r]` has `out[r] >> 11 < bound`.
    #[inline(always)]
    fn keep<V: Lanes>(&mut self, j: usize, out: V, bound: u64, lanes: u32) {
        let m = out.shr(11);
        let mut hits = m.below(bound) & lanes;
        if hits == 0 {
            return;
        }
        let m = m.to_array();
        while hits != 0 {
            let r = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let slot = r * self.stride + self.lens[r];
            (self.js[slot], self.ms[slot]) = (j as u32, m[r]);
            self.lens[r] += 1;
        }
    }
}

/// The draws of the rows `i0..i0 + DRAW_ROWS` that lie below `n`, on
/// `isa`, which this CPU must support: returns each row's first output,
/// then draws one output per pair `(i, j)`, `j ≠ i`, in ascending `j`, and
/// keeps in `cands` (emptied first) the pairs whose output `r` has
/// `r >> 11 < bound`.
pub(super) fn draw_rows(
    isa: Isa,
    seed: u64,
    i0: usize,
    n: usize,
    bound: u64,
    cands: &mut Candidates,
) -> [u64; DRAW_ROWS] {
    assert!(isa.is_supported(), "this CPU does not support {}", isa.name());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F is supported, as asserted.
        Isa::Avx512 => unsafe { x86::draw_avx512(seed, i0, n, bound, cands) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 is supported, as asserted.
        Isa::Avx2 => unsafe { x86::draw_avx2(seed, i0, n, bound, cands) },
        // SAFETY: a plain array needs no instruction set.
        _ => unsafe { draw_lanes::<[u64; DRAW_ROWS]>(seed, i0, n, bound, cands) },
    }
}

/// The body of [`draw_rows`], on the lanes `V`.
///
/// Every stream steps at every `j` but, for the `j` of the group's own
/// rows, lane `j − i0`'s: its pair is `(j, j)`. Those few steps leave the
/// registers for [`RowStreams::next_except`].
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn draw_lanes<V: Lanes>(
    seed: u64,
    i0: usize,
    n: usize,
    bound: u64,
    cands: &mut Candidates,
) -> [u64; DRAW_ROWS] {
    let mut streams = RowStreams::new(seed, i0);
    let first = streams.next_except(DRAW_ROWS);
    cands.lens = [0; DRAW_ROWS];
    // The lanes of rows below `n`.
    let (live, end) = ((1u32 << DRAW_ROWS.min(n - i0)) - 1, n.min(i0 + DRAW_ROWS));
    // SAFETY: the caller guarantees `V`'s instruction set.
    let mut s = streams.s.map(|w| unsafe { V::from_array(w) });
    for j in 0..i0 {
        let out = step(&mut s);
        cands.keep(j, out, bound, live);
    }
    for j in i0..end {
        let own = j - i0;
        streams.s = s.map(V::to_array);
        let out = streams.next_except(own);
        // SAFETY: as above.
        let out = unsafe {
            s = streams.s.map(|w| V::from_array(w));
            V::from_array(out)
        };
        cands.keep(j, out, bound, live & !(1 << own));
    }
    for j in end..n {
        let out = step(&mut s);
        cands.keep(j, out, bound, live);
    }
    first
}

/// Eight `u64` lanes, held in the registers of one instruction set.
///
/// # Safety
/// A value exists only on a CPU that supports the instruction set: the
/// only constructor, [`Lanes::from_array`], is `unsafe` and requires it.
unsafe trait Lanes: Copy {
    /// # Safety
    /// The CPU must support this type's instruction set.
    unsafe fn from_array(v: [u64; DRAW_ROWS]) -> Self;
    fn to_array(self) -> [u64; DRAW_ROWS];
    fn add(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    fn shl(self, k: u32) -> Self;
    fn shr(self, k: u32) -> Self;
    fn rotl(self, k: u32) -> Self;
    /// Bit `r` set when lane `r` is below `bound`; every lane and `bound`
    /// lie below `2⁶³`.
    fn below(self, bound: u64) -> u32;
}

/// The baseline: an array, whose loops the compiler vectorizes as it can.
// SAFETY: an array needs no instruction set.
unsafe impl Lanes for [u64; DRAW_ROWS] {
    #[inline(always)]
    unsafe fn from_array(v: [u64; DRAW_ROWS]) -> Self {
        v
    }
    #[inline(always)]
    fn to_array(self) -> [u64; DRAW_ROWS] {
        self
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|r| self[r].wrapping_add(o[r]))
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        std::array::from_fn(|r| self[r] ^ o[r])
    }
    #[inline(always)]
    fn shl(self, k: u32) -> Self {
        self.map(|x| x << k)
    }
    #[inline(always)]
    fn shr(self, k: u32) -> Self {
        self.map(|x| x >> k)
    }
    #[inline(always)]
    fn rotl(self, k: u32) -> Self {
        self.map(|x| x.rotate_left(k))
    }
    #[inline(always)]
    fn below(self, bound: u64) -> u32 {
        (0..DRAW_ROWS).fold(0, |hits, r| hits | u32::from(self[r] < bound) << r)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// [`draw_lanes`] compiled with AVX2, on two 256-bit registers.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn draw_avx2(
        seed: u64,
        i0: usize,
        n: usize,
        bound: u64,
        cands: &mut Candidates,
    ) -> [u64; DRAW_ROWS] {
        // SAFETY: the caller guarantees AVX2.
        unsafe { draw_lanes::<Avx2>(seed, i0, n, bound, cands) }
    }

    /// [`draw_lanes`] compiled with AVX-512F, on one 512-bit register.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn draw_avx512(
        seed: u64,
        i0: usize,
        n: usize,
        bound: u64,
        cands: &mut Candidates,
    ) -> [u64; DRAW_ROWS] {
        // SAFETY: the caller guarantees AVX-512F.
        unsafe { draw_lanes::<Avx512>(seed, i0, n, bound, cands) }
    }

    /// Eight lanes in two AVX2 registers.
    #[derive(Clone, Copy)]
    struct Avx2([__m256i; 2]);

    impl Avx2 {
        #[inline(always)]
        fn map2(self, o: Self, f: impl Fn(__m256i, __m256i) -> __m256i) -> Self {
            Avx2([f(self.0[0], o.0[0]), f(self.0[1], o.0[1])])
        }

        #[inline(always)]
        fn map(self, f: impl Fn(__m256i) -> __m256i) -> Self {
            Avx2(self.0.map(f))
        }
    }

    // SAFETY: `from_array` requires AVX2; every other method takes a value,
    // which only exists on such a CPU, and calls AVX2 intrinsics only.
    unsafe impl Lanes for Avx2 {
        #[inline(always)]
        unsafe fn from_array(v: [u64; DRAW_ROWS]) -> Self {
            // SAFETY: unaligned loads of 4 lanes each; AVX2 as required.
            unsafe {
                let p = v.as_ptr().cast::<__m256i>();
                Avx2([_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))])
            }
        }
        #[inline(always)]
        fn to_array(self) -> [u64; DRAW_ROWS] {
            let mut v = [0; DRAW_ROWS];
            // SAFETY: unaligned stores of 4 lanes each; AVX2, as `self`
            // exists.
            unsafe {
                let p = v.as_mut_ptr().cast::<__m256i>();
                _mm256_storeu_si256(p, self.0[0]);
                _mm256_storeu_si256(p.add(1), self.0[1]);
            }
            v
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX2, as `self` exists.
            self.map2(o, |a, b| unsafe { _mm256_add_epi64(a, b) })
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: as above.
            self.map2(o, |a, b| unsafe { _mm256_xor_si256(a, b) })
        }
        #[inline(always)]
        fn shl(self, k: u32) -> Self {
            // SAFETY: as above.
            self.map(|a| unsafe { _mm256_sllv_epi64(a, _mm256_set1_epi64x(k.into())) })
        }
        #[inline(always)]
        fn shr(self, k: u32) -> Self {
            // SAFETY: as above.
            self.map(|a| unsafe { _mm256_srlv_epi64(a, _mm256_set1_epi64x(k.into())) })
        }
        #[inline(always)]
        fn rotl(self, k: u32) -> Self {
            self.shl(k).xor(self.shr(64 - k))
        }
        #[inline(always)]
        fn below(self, bound: u64) -> u32 {
            // Signed compares, exact as every value lies below 2⁶³.
            // SAFETY: AVX2, as `self` exists.
            let [lo, hi] = self.0.map(|a| unsafe {
                let lt = _mm256_cmpgt_epi64(_mm256_set1_epi64x(bound as i64), a);
                _mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u32
            });
            lo | hi << 4
        }
    }

    /// Eight lanes in one AVX-512 register.
    #[derive(Clone, Copy)]
    struct Avx512(__m512i);

    // SAFETY: `from_array` requires AVX-512F; every other method takes a
    // value, which only exists on such a CPU, and calls AVX-512F
    // intrinsics only.
    unsafe impl Lanes for Avx512 {
        #[inline(always)]
        unsafe fn from_array(v: [u64; DRAW_ROWS]) -> Self {
            // SAFETY: an unaligned load of 8 lanes; AVX-512F as required.
            unsafe { Avx512(_mm512_loadu_si512(v.as_ptr().cast())) }
        }
        #[inline(always)]
        fn to_array(self) -> [u64; DRAW_ROWS] {
            let mut v = [0; DRAW_ROWS];
            // SAFETY: an unaligned store of 8 lanes; AVX-512F, as `self`
            // exists.
            unsafe { _mm512_storeu_si512(v.as_mut_ptr().cast(), self.0) };
            v
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512F, as `self` exists.
            Avx512(unsafe { _mm512_add_epi64(self.0, o.0) })
        }
        #[inline(always)]
        fn xor(self, o: Self) -> Self {
            // SAFETY: as above.
            Avx512(unsafe { _mm512_xor_si512(self.0, o.0) })
        }
        #[inline(always)]
        fn shl(self, k: u32) -> Self {
            // SAFETY: as above.
            Avx512(unsafe { _mm512_sllv_epi64(self.0, _mm512_set1_epi64(k.into())) })
        }
        #[inline(always)]
        fn shr(self, k: u32) -> Self {
            // SAFETY: as above.
            Avx512(unsafe { _mm512_srlv_epi64(self.0, _mm512_set1_epi64(k.into())) })
        }
        #[inline(always)]
        fn rotl(self, k: u32) -> Self {
            // SAFETY: as above.
            Avx512(unsafe { _mm512_rolv_epi64(self.0, _mm512_set1_epi64(k.into())) })
        }
        #[inline(always)]
        fn below(self, bound: u64) -> u32 {
            // SAFETY: as above.
            unsafe { _mm512_cmplt_epu64_mask(self.0, _mm512_set1_epi64(bound as i64)) }.into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use vrdag_tensor::simd;

    /// Row `i`'s stream as a plain pair loop draws it.
    fn std_stream(seed: u64, i: usize) -> StdRng {
        StdRng::seed_from_u64(splitmix64(seed ^ (i as u64).wrapping_mul(PHI)))
    }

    /// Seeds at both ends of the range, then random ones.
    fn seeds(rng: &mut StdRng, random: usize) -> Vec<u64> {
        let mut seeds = vec![0, 1, 7, u64::MAX, PHI];
        seeds.extend((0..random).map(|_| rng.next_u64()));
        seeds
    }

    /// Every lane gives its row's `StdRng` stream, output for output, over
    /// 10⁴ outputs, for many seeds and groups; a held lane's output comes
    /// again at its next step.
    #[test]
    fn row_streams_are_the_std_rng_streams() {
        let mut rng = StdRng::seed_from_u64(21);
        for seed in seeds(&mut rng, 27) {
            let i0 = rng.gen_range(0..1 << 20) * DRAW_ROWS;
            let mut want: Vec<StdRng> = (0..DRAW_ROWS).map(|r| std_stream(seed, i0 + r)).collect();
            let mut streams = RowStreams::new(seed, i0);
            for t in 0..10_000 {
                // Hold a random lane one step in five.
                let hold = if rng.gen_bool(0.2) { rng.gen_range(0..DRAW_ROWS) } else { DRAW_ROWS };
                let out = streams.next_except(hold);
                for (r, want) in want.iter_mut().enumerate().filter(|&(r, _)| r != hold) {
                    assert_eq!(out[r], want.next_u64(), "seed={seed} i0={i0} step {t} lane {r}");
                }
            }
        }
    }

    /// [`draw_rows`] on every instruction set this CPU supports equals a
    /// plain loop over `StdRng` draws: each row's first output, then its
    /// candidates, for groups that end partial and full, with the own
    /// lane at every position of a group, at bounds that keep no pair,
    /// every pair, and some.
    #[test]
    fn draw_rows_is_a_plain_loop_over_std_rng_draws() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut checked = 0;
        for n in [2, 3, 9, 15, 17, 33] {
            for seed in seeds(&mut rng, 3) {
                let some = rng.gen_range(1..1u64 << 53);
                for bound in [0, 1, 1 << 51, some, 1 << 53] {
                    for i0 in (0..n).step_by(DRAW_ROWS) {
                        let mut want_first = [0; DRAW_ROWS];
                        let mut want = Vec::new();
                        for r in 0..DRAW_ROWS.min(n - i0) {
                            let mut stream = std_stream(seed, i0 + r);
                            want_first[r] = stream.next_u64();
                            let draws = (0..n)
                                .filter(|&j| j != i0 + r)
                                .map(|j| (j, stream.next_u64() >> 11));
                            let (js, ms): (Vec<_>, Vec<_>) = draws
                                .filter(|&(_, m)| m < bound)
                                .map(|(j, m)| (j as u32, m))
                                .unzip();
                            want.push((js, ms));
                        }
                        for isa in simd::supported() {
                            let at = format!(
                                "n={n} seed={seed} bound={bound} i0={i0} isa={}",
                                isa.name()
                            );
                            let mut cands = Candidates::new(n - 1);
                            // Leftovers from an earlier group must not show.
                            cands.keep(0, [0; DRAW_ROWS], 1, (1 << DRAW_ROWS) - 1);
                            let first = draw_rows(isa, seed, i0, n, bound, &mut cands);
                            for (r, (js, ms)) in want.iter().enumerate() {
                                assert_eq!(first[r], want_first[r], "{at} row {r}: first output");
                                assert_eq!(cands.row(r), (&js[..], &ms[..]), "{at} row {r}");
                            }
                            let total: usize = want.iter().map(|w| w.0.len()).sum();
                            assert_eq!(cands.len(), total, "{at}");
                            checked += total;
                        }
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} candidates checked");
    }
}
