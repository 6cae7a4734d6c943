//! The four workloads as data: which model each serves, its request
//! classes and their traffic shares, and the seeded key and arrival
//! sequences the clients replay. Nothing here touches a socket, so the
//! same seed always yields the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vrdag_datasets::DatasetSpec;
use vrdag_serve::protocol::WireFormat;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdGen,
    WarmReplay,
    RoutedMix,
    Fig9Trend,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdGen, Workload::WarmReplay, Workload::RoutedMix, Workload::Fig9Trend];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGen => "cold_gen",
            Workload::WarmReplay => "warm_replay",
            Workload::RoutedMix => "routed_mix",
            Workload::Fig9Trend => "fig9_trend",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Gen,
    Sub,
}

/// One kind of request a workload sends. Latency percentiles are taken
/// per class and combined by `share`, so a mix of fast and slow classes
/// (a bin replay next to a TSV replay) yields a stable number instead of
/// a median that jumps between the modes.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    pub verb: Verb,
    pub fmt: WireFormat,
    pub t: usize,
    /// Keys come from the pre-warmed hot set (cache hits) rather than
    /// fresh seeds (misses).
    pub hot: bool,
    /// Share of the workload's requests in this class.
    pub share: f64,
}

pub enum Traffic {
    /// Lock-step clients, one connection each; client `i` cycles through
    /// the class indices of entry `i`, reshuffled every pass.
    Closed(Vec<Vec<usize>>),
    /// Requests due at seeded Poisson arrival times at `rate` per second,
    /// pipelined on one tagged connection; classes drawn by cycling
    /// through `cycle`, reshuffled every pass.
    Open { rate: f64, cycle: Vec<usize> },
}

pub struct Plan {
    pub workload: Workload,
    pub dataset: DatasetSpec,
    /// A router in front of two backends instead of one direct node.
    pub routed: bool,
    pub classes: Vec<Class>,
    pub hot_keys: usize,
    pub traffic: Traffic,
}

const fn class(verb: Verb, fmt: WireFormat, t: usize, hot: bool, share: f64) -> Class {
    Class { verb, fmt, t, hot, share }
}

impl Plan {
    /// The workload as benchmarked; `tiny` swaps the model for the
    /// test-sized dataset so a smoke test runs in seconds.
    pub fn new(workload: Workload, tiny: bool) -> Plan {
        use Verb::{Gen, Sub};
        use WireFormat::{Bin, Tsv};
        let (dataset, routed, classes, hot_keys, traffic) = match workload {
            Workload::ColdGen => (
                vrdag_datasets::email().scaled(0.1),
                false,
                vec![class(Sub, Bin, 8, false, 1.0)],
                0,
                Traffic::Closed(vec![vec![0], vec![0]]),
            ),
            Workload::WarmReplay => (
                vrdag_datasets::email().scaled(0.1),
                false,
                vec![
                    class(Gen, Tsv, 16, true, 0.25),
                    class(Gen, Bin, 16, true, 0.25),
                    class(Sub, Tsv, 16, true, 0.25),
                    class(Sub, Bin, 16, true, 0.25),
                ],
                8,
                // One client: with a second one, its large replies held
                // back most `tsv` SUBs' first EVT, and the median of those
                // two latency modes jumped from run to run.
                Traffic::Closed(vec![vec![0, 1, 2, 3]]),
            ),
            Workload::RoutedMix => {
                let mut classes = Vec::new();
                let mut cycle = Vec::new();
                // 80% hot keys, 20% fresh seeds; GEN/SUB and tsv/bin
                // evenly within each: a pass of 20 holds 4 of every hot
                // class and 1 of every fresh class.
                for (hot, share, per_pass) in [(true, 0.2, 4), (false, 0.05, 1)] {
                    for verb in [Gen, Sub] {
                        for fmt in [Tsv, Bin] {
                            cycle.extend(std::iter::repeat_n(classes.len(), per_pass));
                            classes.push(class(verb, fmt, 8, hot, share));
                        }
                    }
                }
                (
                    vrdag_datasets::email().scaled(0.05),
                    true,
                    classes,
                    64,
                    Traffic::Open { rate: 40.0, cycle },
                )
            }
            Workload::Fig9Trend => {
                let ts = [5, 10, 15, 20, 25, 30, 35];
                let classes: Vec<Class> =
                    ts.iter().map(|&t| class(Sub, Bin, t, false, 1.0 / ts.len() as f64)).collect();
                let all: Vec<usize> = (0..classes.len()).collect();
                (
                    vrdag_datasets::bitcoin().scaled(0.05),
                    false,
                    classes,
                    0,
                    Traffic::Closed(vec![all.clone(), all]),
                )
            }
        };
        let dataset = if tiny { vrdag_datasets::tiny() } else { dataset };
        Plan { workload, dataset, routed, classes, hot_keys, traffic }
    }

    /// Distinct `t` of the hot classes (the lengths pre-warmed in setup).
    pub fn hot_ts(&self) -> Vec<usize> {
        let mut ts: Vec<usize> = self.classes.iter().filter(|c| c.hot).map(|c| c.t).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    pub fn min_t(&self) -> usize {
        self.classes.iter().map(|c| c.t).min().expect("a workload has classes")
    }
}

/// Seed namespaces: the top four bits of a wire seed say which set it
/// belongs to, so fresh seeds can never collide with a pre-warmed or
/// warm-up key (nor with the fixed digest keys, which use kind 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot = 1,
    WarmUp = 2,
    Fresh = 3,
}

const MASK52: u64 = (1 << 52) - 1;

/// A bijection on 52-bit values: spreads consecutive counters over the
/// whole range so neighbouring keys land in different router seed
/// buckets, while distinct inputs stay distinct.
fn scramble52(mut x: u64) -> u64 {
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & MASK52;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9 | 1) & MASK52;
    x ^ (x >> 32)
}

/// Seed number `i` of stream `stream` in namespace `kind`, offset by a
/// per-run base drawn from the workload seed.
pub fn key_seed(kind: Kind, stream: u8, run_seed: u64, i: u64) -> u64 {
    let salt = ((kind as u64) << 8) | stream as u64;
    let base = StdRng::seed_from_u64(run_seed ^ salt).gen::<u64>();
    ((kind as u64) << 60) | ((stream as u64) << 52) | scramble52(base.wrapping_add(i) & MASK52)
}

pub fn hot_keys(plan: &Plan, run_seed: u64) -> Vec<u64> {
    (0..plan.hot_keys as u64).map(|i| key_seed(Kind::Hot, 0, run_seed, i)).collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One request: a class index and the seed it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub class: usize,
    pub seed: u64,
}

/// An endless, seeded request sequence for one client: classes cycle
/// through a reshuffled pass, hot keys through a reshuffled permutation
/// of the hot set, and every fresh seed is new.
pub struct Stream {
    rng: StdRng,
    pass: Vec<usize>,
    pos: usize,
    hot: Vec<u64>,
    hot_pos: usize,
    stream: u8,
    run_seed: u64,
    fresh: u64,
    classes: Vec<bool>,
}

impl Stream {
    pub fn new(plan: &Plan, pass: Vec<usize>, stream: u8, run_seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(run_seed ^ 0x5EED_0000 ^ stream as u64),
            pos: pass.len(),
            pass,
            hot: hot_keys(plan, run_seed),
            hot_pos: usize::MAX,
            stream,
            run_seed,
            fresh: 0,
            classes: plan.classes.iter().map(|c| c.hot).collect(),
        }
    }
}

impl Iterator for Stream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.pos >= self.pass.len() {
            shuffle(&mut self.pass, &mut self.rng);
            self.pos = 0;
        }
        let class = self.pass[self.pos];
        self.pos += 1;
        let seed = if self.classes[class] {
            if self.hot_pos >= self.hot.len() {
                shuffle(&mut self.hot, &mut self.rng);
                self.hot_pos = 0;
            }
            self.hot_pos += 1;
            self.hot[self.hot_pos - 1]
        } else {
            self.fresh += 1;
            key_seed(Kind::Fresh, self.stream, self.run_seed, self.fresh - 1)
        };
        Some(Req { class, seed })
    }
}

/// The open-loop schedule of a `seconds`-long window: `round(rate ×
/// seconds)` arrivals placed uniformly at random and sorted (a Poisson
/// process conditioned on its count, so every seed offers the same
/// load), each paired with the next request of a seeded [`Stream`].
pub fn open_schedule(plan: &Plan, seconds: f64, run_seed: u64) -> Vec<(f64, Req)> {
    let Traffic::Open { rate, cycle } = &plan.traffic else {
        return Vec::new();
    };
    let n = (rate * seconds).round() as usize;
    let mut rng = StdRng::seed_from_u64(run_seed ^ 0xA11_1BA1);
    let mut times: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times.into_iter().zip(Stream::new(plan, cycle.clone(), 0, run_seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_and_key_mix_are_deterministic_per_seed() {
        let plan = Plan::new(Workload::RoutedMix, false);
        let a = open_schedule(&plan, 10.0, 7);
        assert_eq!(a.len(), 400);
        assert_eq!(a, open_schedule(&plan, 10.0, 7));
        assert_ne!(a, open_schedule(&plan, 10.0, 8));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0) && a.iter().all(|(t, _)| *t < 10.0));
        // Every pass of 20 holds exactly 16 hot and 4 fresh requests.
        for pass in a.chunks(20) {
            assert_eq!(pass.iter().filter(|(_, r)| plan.classes[r.class].hot).count(), 16);
        }
        let closed = Plan::new(Workload::WarmReplay, false);
        let take = |s: u64| Stream::new(&closed, vec![0, 1], 1, s).take(50).collect::<Vec<_>>();
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn fresh_seeds_are_disjoint_from_hot_and_warm_up_seeds() {
        let plan = Plan::new(Workload::RoutedMix, false);
        for run_seed in [0, 1, 2, u64::MAX] {
            let hot: HashSet<u64> = hot_keys(&plan, run_seed).into_iter().collect();
            assert_eq!(hot.len(), 64);
            let warm: HashSet<u64> =
                (0..4).map(|i| key_seed(Kind::WarmUp, i as u8, run_seed, 0)).collect();
            let mut fresh = HashSet::new();
            for stream in 0..2u8 {
                let s = Stream::new(&plan, vec![4, 5, 6, 7], stream, run_seed);
                for req in s.take(5000) {
                    assert!(fresh.insert(req.seed), "fresh seeds never repeat");
                }
            }
            assert!(fresh.is_disjoint(&hot) && fresh.is_disjoint(&warm) && hot.is_disjoint(&warm));
            assert!(fresh.iter().all(|&s| s >= 3 << 60), "digest keys use kind 0");
        }
    }
}
