//! The serve-mix request generator.
//!
//! Every request names one key from a fixed pool, so that the expected
//! answer for every request the generator can produce is stored with the
//! benchmark (see `expected`):
//!
//! * `app` keys: a registry app under one of [`APP_SEEDS`] analysis
//!   seeds (loop-profile mode). Cold ones are interpreter-bound.
//! * `lib` keys: one of [`LIB_POOL`] library-style sources of about
//!   [`LIB_TARGET_BYTES`], built from the registry's JavaScript wrapped
//!   as functions that are never called. Real libraries ship far more
//!   code than a page runs, so these load the front half of the pipeline
//!   (parse, rewrite, compile) and the cache key's hash, not the
//!   interpreter.
//!
//! The workload seed decides the order cold keys are drawn in, which
//! requests repeat an earlier key, which are streamed, and where the
//! slow-client requests fall. The pool itself does not depend on it.
//!
//! A plan is at most [`ROUND_LEN`] requests long, which the pool can
//! serve without running out of cold keys of either kind, so every
//! block of the plan has the same make-up. A run that gets through a
//! whole plan starts the next round against a fresh daemon, whose cache
//! is empty, so cold keys are cold again: the mix stays the same
//! however fast the system under test is.
//!
//! The shares below are chosen, not measured from any observed traffic:
//! they make a mix whose daemon time goes mostly to the wire, the cache
//! and the front half of the pipeline rather than to the interpreter.
//! Each serve-mix run prints how its time actually split (see
//! `serve::print_shares`), so the choice can be checked.

use ceres_workloads::registry::all;

/// Analysis seeds per registry app in the key pool.
pub const APP_SEEDS: u64 = 32;
/// First analysis seed of the pool (the project's default seed).
pub const APP_SEED_BASE: u64 = 2015;
/// Library sources in the key pool.
pub const LIB_POOL: u32 = 384;
/// Size a library source grows to before its entry point is appended.
pub const LIB_TARGET_BYTES: usize = 100 * 1024;
/// Seed of the library pool's own generator (fixed: the pool is data).
const LIB_POOL_SEED: u64 = 0x5eed_0f11_b5a7;

/// Longest plan the key pool serves with every block intact: 50 blocks
/// take 251 cold app keys (of 384) and 350 library keys (of 384).
pub const ROUND_LEN: usize = 1000;

/// Share of fresh (cold) requests sent with `"stream":true`.
pub const STREAM_SHARE: f64 = 0.3;
/// One request in this many arrives in two writes, with a pause longer
/// than the daemon's 200 ms read poll between them.
pub const SLOW_PERIOD: usize = 25;

/// Wire mode of pool keys served by the daemon.
pub const LOOP: &str = "loop-profile";
/// Wire mode of the dependence fleet.
pub const DEP: &str = "dependence";

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One analysis the daemon can be asked for, with a stored answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// A registry app by slug, analysis seed and wire mode.
    App {
        /// Registry slug.
        slug: &'static str,
        /// Analysis (virtual-clock) seed.
        seed: u64,
        /// Wire mode name.
        mode: &'static str,
    },
    /// A pool library source, analyzed in loop-profile mode.
    Lib(u32),
}

impl Key {
    /// Stable identifier, as used in the expected-answers file.
    pub fn id(&self) -> String {
        match self {
            Key::App { slug, seed, mode } => format!("app/{slug}/{seed}/{mode}"),
            Key::Lib(i) => format!("lib/{i}"),
        }
    }

    /// Whether this is a library-style source.
    pub fn is_lib(&self) -> bool {
        matches!(self, Key::Lib(_))
    }

    /// The request line for this key (without the trailing newline).
    pub fn request_line(&self, id: &str, stream: bool) -> String {
        let stream = if stream { ",\"stream\":true" } else { "" };
        match self {
            Key::App { slug, seed, mode } => format!(
                "{{\"id\":\"{id}\",\"app\":\"{slug}\",\"mode\":\"{mode}\",\"seed\":{seed}{stream}}}"
            ),
            Key::Lib(i) => format!(
                "{{\"id\":\"{id}\",\"source\":{},\"mode\":\"{LOOP}\",\"seed\":{APP_SEED_BASE}{stream}}}",
                serde_json::to_string(&lib_source(*i)).expect("a string serializes")
            ),
        }
    }
}

/// Every key of the serve-mix pool, in a fixed order.
pub fn pool() -> Vec<Key> {
    let mut keys = app_keys();
    keys.extend((0..LIB_POOL).map(Key::Lib));
    keys
}

fn app_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for w in all() {
        for s in 0..APP_SEEDS {
            keys.push(Key::App {
                slug: w.slug,
                seed: APP_SEED_BASE + s,
                mode: LOOP,
            });
        }
    }
    keys
}

/// Library source `index` of the pool: registry programs wrapped as
/// functions nobody calls, until the text passes [`LIB_TARGET_BYTES`],
/// then a small entry point with one loop that does run.
pub fn lib_source(index: u32) -> String {
    let apps = all();
    let mut rng = Rng::new(LIB_POOL_SEED ^ u64::from(index).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut out = format!(
        "// library {index}: registry code wrapped as functions that are never called\n\
         var lib{index}_state = {{ calls: 0 }};\n"
    );
    let mut module = 0;
    while out.len() < LIB_TARGET_BYTES {
        let w = &apps[rng.below(apps.len())];
        out.push_str(&format!(
            "function lib{index}_mod{module}() {{\n{}\n}}\n",
            w.source
        ));
        module += 1;
    }
    let n = 50 + rng.below(200);
    let m = 3 + rng.below(13);
    out.push_str(&format!(
        "function lib{index}_main(n) {{\n  var acc = 0;\n  for (var i = 0; i < n; i++) {{\n    \
         acc += (i * {m}) % 7;\n  }}\n  lib{index}_state.calls++;\n  return acc;\n}}\n\
         console.log(\"lib{index}\", lib{index}_main({n}));\n"
    ));
    out
}

/// One planned request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// The analysis asked for.
    pub key: Key,
    /// Drawn as a repeat of an earlier key (expected to hit the cache).
    pub warm: bool,
    /// Sent with `"stream":true`.
    pub stream: bool,
    /// Sent in two writes with a pause longer than the read poll.
    pub slow: bool,
}

/// Kinds of request in one block of the mix.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Warm,
    App,
    Lib,
}

/// One block of the mix: every block holds exactly these requests, in
/// a seeded order, so each class keeps the same share in every run.
const BLOCK: [(Class, usize); 3] = [(Class::Warm, 8), (Class::App, 5), (Class::Lib, 7)];

/// The first `len` requests of the mix for `seed` (`len` at most
/// [`ROUND_LEN`]). Clients take requests in this order; how far a run
/// gets depends on the system's speed, but request `i` is the same on
/// every run with this seed.
///
/// Cold app requests visit the 12 registry apps round-robin, in a fresh
/// seeded order each round, each time under an analysis seed not used
/// before: the apps cost from a few to a few hundred milliseconds, and
/// an unbalanced draw would move the latency percentiles from seed to
/// seed more than any change to the code.
pub fn plan(seed: u64, len: usize) -> Vec<Planned> {
    assert!(
        len <= ROUND_LEN,
        "a plan of {len} requests outruns the key pool"
    );
    let mut rng = Rng::new(seed);
    let slugs: Vec<&'static str> = all().iter().map(|w| w.slug).collect();
    let mut app_seeds: Vec<Vec<u64>> = slugs
        .iter()
        .map(|_| {
            let mut s: Vec<u64> = (0..APP_SEEDS).map(|i| APP_SEED_BASE + i).collect();
            rng.shuffle(&mut s);
            s
        })
        .collect();
    let mut libs: Vec<Key> = (0..LIB_POOL).map(Key::Lib).collect();
    rng.shuffle(&mut libs);
    let slow_phase = rng.below(SLOW_PERIOD);
    let mut round: Vec<usize> = Vec::new();
    let mut block: Vec<Class> = Vec::new();
    let mut seen: Vec<Key> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if block.is_empty() {
            block = BLOCK
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            rng.shuffle(&mut block);
        }
        let mut class = block.pop().expect("the block was refilled");
        let skew = rng.unit();
        let stream = rng.unit() < STREAM_SHARE;
        if class == Class::Warm && seen.is_empty() {
            class = Class::App;
        }
        let mut next_app = || {
            if round.is_empty() {
                round = (0..slugs.len()).collect();
                rng.shuffle(&mut round);
            }
            let app = round.pop().expect("the round was refilled");
            app_seeds[app].pop().map(|seed| Key::App {
                slug: slugs[app],
                seed,
                mode: LOOP,
            })
        };
        let fresh = match class {
            Class::Warm => None,
            Class::App => Some(next_app().expect("ROUND_LEN fits the app keys")),
            Class::Lib => Some(libs.pop().expect("ROUND_LEN fits the library keys")),
        };
        let (key, warm) = match fresh {
            Some(k) => {
                seen.push(k.clone());
                (k, false)
            }
            None => {
                // Skewed towards recent keys: the newest few are hot,
                // the oldest are rarely asked for again.
                let back = (seen.len() as f64 * skew.powi(3)) as usize;
                (seen[seen.len() - 1 - back].clone(), true)
            }
        };
        out.push(Planned {
            key,
            warm,
            stream: stream && !warm,
            slow: i % SLOW_PERIOD == slow_phase,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn keys(p: &[Planned]) -> BTreeSet<Key> {
        p.iter().map(|r| r.key.clone()).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(plan(7, ROUND_LEN), plan(7, ROUND_LEN));
        // A longer plan extends a shorter one: run length never changes
        // which request comes i-th.
        assert_eq!(plan(7, ROUND_LEN)[..500], plan(7, 500)[..]);
    }

    #[test]
    fn different_seed_different_keys() {
        let a = plan(1, 600);
        let b = plan(2, 600);
        assert_ne!(keys(&a), keys(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn mix_has_every_class() {
        let p = plan(3, ROUND_LEN);
        let streamed = p.iter().filter(|r| r.stream).count();
        let slow = p.iter().filter(|r| r.slow).count();
        assert!(streamed > 100);
        assert_eq!(slow, ROUND_LEN / SLOW_PERIOD);
        // Distinct keys exceed the daemon's 256-entry default cache.
        assert!(keys(&p).len() > 256);
        // Warm requests only repeat keys already sent.
        let mut sent = BTreeSet::new();
        for r in &p {
            assert_eq!(r.warm, sent.contains(&r.key), "{r:?}");
            sent.insert(r.key.clone());
        }
    }

    #[test]
    fn every_block_keeps_its_make_up_to_the_end_of_the_plan() {
        for seed in [1, 2, 3, 10] {
            let p = plan(seed, ROUND_LEN);
            for (b, block) in p.chunks(20).enumerate() {
                let warm = block.iter().filter(|r| r.warm).count();
                let libs = block.iter().filter(|r| !r.warm && r.key.is_lib()).count();
                let apps = block.iter().filter(|r| !r.warm && !r.key.is_lib()).count();
                // 8 warm, 5 app and 7 lib requests; the very first
                // request cannot repeat anything, so a warm draw there
                // turns into a cold app.
                let first_warm_was_cold = b == 0 && (warm, apps) == (7, 6);
                assert!(
                    (warm, apps, libs) == (8, 5, 7) || first_warm_was_cold && libs == 7,
                    "seed {seed} block {b}: {warm} warm, {apps} app, {libs} lib"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outruns the key pool")]
    fn a_plan_longer_than_the_pool_is_refused() {
        plan(1, ROUND_LEN + 1);
    }

    #[test]
    fn cold_apps_visit_every_registry_app_each_round() {
        let p = plan(9, ROUND_LEN);
        let slugs: Vec<&str> = p
            .iter()
            .filter_map(|r| match &r.key {
                Key::App { slug, .. } if !r.warm => Some(*slug),
                _ => None,
            })
            .collect();
        for round in slugs.chunks_exact(12) {
            let distinct: BTreeSet<&str> = round.iter().copied().collect();
            assert_eq!(distinct.len(), 12);
        }
    }

    #[test]
    fn every_lib_source_parses() {
        for i in 0..LIB_POOL {
            let src = lib_source(i);
            assert!(src.len() >= LIB_TARGET_BYTES && src.len() < 2 * LIB_TARGET_BYTES);
            ceres_parser::parse_program(&src)
                .unwrap_or_else(|e| panic!("lib {i} does not parse: {e}"));
        }
    }

    #[test]
    fn lib_sources_are_distinct_and_stable() {
        assert_eq!(lib_source(5), lib_source(5));
        assert_ne!(lib_source(5), lib_source(6));
    }

    #[test]
    fn request_lines_are_json() {
        for key in [Key::Lib(0), app_keys()[0].clone()] {
            let line = key.request_line("r1", true);
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("r1"));
            assert_eq!(v.get("stream").and_then(|x| x.as_bool()), Some(true));
            assert!(!line.contains('\n'));
        }
    }
}
