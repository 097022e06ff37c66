//! Seeded input generation.  Every input of every workload is a function of
//! the run seed; the program under test only ever receives the generated
//! inputs.
//!
//! Seed 0 is the quick evaluation campaign (`CampaignConfig::quick()`):
//! measurement noise 2022 and suite seed 99, so `train --seed 0` scores the
//! same cells `figure4` prints.

use palmed_eval::suite::generate_suite;
use palmed_eval::{BasicBlock, CampaignConfig, SuiteConfig, SuiteKind};
use palmed_isa::{InstructionSet, InventoryConfig};
use palmed_machine::MeasurementNoise;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

/// Measurement-noise seed of the quick campaign.
pub const CAMPAIGN_NOISE_SEED: u64 = 2022;
/// Suite seed of the quick campaign.
pub const CAMPAIGN_SUITE_SEED: u64 = 99;
/// Blocks per scoring suite behind the end-to-end accuracy metrics.
pub const SCORE_BLOCKS: usize = 2000;

/// Smallest request, in blocks.
pub const MIN_BLOCKS: usize = 50;
/// Largest request, in blocks.
pub const MAX_BLOCKS: usize = 4000;
/// Distinct blocks per suite kind that requests draw from.
pub const POOL_BLOCKS: usize = 20_000;
/// Distinct corpora `serve_hot` repeats: fewer than the shared batcher's
/// 64-entry corpus cache.
pub const HOT_POOL: usize = 48;
/// Completed requests between two `serve_hot` model swaps.
pub const SWAP_GAP: std::ops::RangeInclusive<u64> = 40..=160;

/// A seed for one named input stream, independent of the other streams.
pub fn derive(seed: u64, stream: &str) -> u64 {
    let mut x = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    x ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finaliser
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The instruction inventory both paths run on: the quick campaign's.
pub fn inventory() -> InventoryConfig {
    CampaignConfig::quick().inventory
}

/// The instruction set of [`inventory`], shared by the SKL-like and
/// Zen1-like presets.
pub fn instruction_set() -> InstructionSet {
    InstructionSet::synthetic(&inventory())
}

/// The inputs of the `train` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainPlan {
    /// Noise of the measurements Palmed trains on.  Fixed at the campaign's
    /// seed: Palmed's accuracy swings by about a third across noise seeds
    /// (README.md), more than any bound could absorb.
    pub training_noise: MeasurementNoise,
    /// Noise of the native measurements the mappings are scored against.
    pub native_noise: MeasurementNoise,
    /// The quick campaign's 60-block suites: the per-cell `eval.*` metrics.
    pub cell_suite: SuiteConfig,
    /// The larger suites behind the end-to-end accuracy metrics.
    pub score_suite: SuiteConfig,
}

impl TrainPlan {
    /// The plan of run `seed`.
    pub fn new(seed: u64) -> TrainPlan {
        TrainPlan {
            training_noise: MeasurementNoise::realistic(CAMPAIGN_NOISE_SEED),
            native_noise: MeasurementNoise::realistic(CAMPAIGN_NOISE_SEED.wrapping_add(seed)),
            cell_suite: SuiteConfig::small(CAMPAIGN_SUITE_SEED.wrapping_add(seed)),
            score_suite: SuiteConfig {
                num_blocks: SCORE_BLOCKS,
                ..SuiteConfig::small(derive(seed, "score-suite"))
            },
        }
    }
}

/// Suite kinds in the order requests alternate between them.
pub const KINDS: [SuiteKind; 2] = SuiteKind::ALL;

/// Generated blocks of one suite kind, with their corpus lines.
#[derive(Debug)]
pub struct BlockPool {
    /// The blocks.
    pub blocks: Vec<BasicBlock>,
    /// `PALMED-CORPUS v1` line of every block, newline included.
    pub lines: Vec<String>,
}

impl BlockPool {
    /// Generates the pool of `kind` for run `seed`.
    pub fn generate(kind: SuiteKind, insts: &InstructionSet, seed: u64, size: usize) -> BlockPool {
        let config = SuiteConfig {
            num_blocks: size,
            ..SuiteConfig::small(derive(seed, "pool"))
        };
        let blocks = generate_suite(kind, insts, &config);
        let lines = blocks
            .iter()
            .enumerate()
            .map(|(i, block)| {
                let mut line = format!("b{i} {}", block.weight);
                for (inst, count) in block.kernel.iter() {
                    write!(line, " {}×{count}", insts.name(inst)).expect("String write");
                }
                line.push('\n');
                line
            })
            .collect();
        BlockPool { blocks, lines }
    }
}

/// One request: which pool it draws from and which blocks, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Position in the request stream.
    pub id: u64,
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Block indices into that kind's pool.
    pub blocks: Arc<[u32]>,
}

/// Renders a plan as `PALMED-CORPUS v1` text.
pub fn corpus_text(pools: &[BlockPool], plan: &Plan) -> String {
    let lines = &pools[plan.kind].lines;
    let mut text = String::with_capacity(24 + plan.blocks.len() * 64);
    text.push_str("PALMED-CORPUS v1\n");
    for &b in plan.blocks.iter() {
        text.push_str(&lines[b as usize]);
    }
    text
}

/// The request size at quantile `u` of a heavy-tailed (log-uniform)
/// distribution over `MIN_BLOCKS..=MAX_BLOCKS`.
fn request_size(u: f64) -> usize {
    let ratio = MAX_BLOCKS as f64 / MIN_BLOCKS as f64;
    let size = MIN_BLOCKS as f64 * ratio.powf(u);
    (size.round() as usize).clamp(MIN_BLOCKS, MAX_BLOCKS)
}

/// A fresh random corpus plan whose size sits at quantile `u`.
fn fresh_plan(rng: &mut StdRng, id: u64, pool_size: usize, u: f64) -> Plan {
    let size = request_size(u);
    let blocks: Vec<u32> = (0..size)
        .map(|_| rng.gen_range(0..pool_size) as u32)
        .collect();
    Plan {
        id,
        kind: (id % 2) as usize,
        blocks: blocks.into(),
    }
}

/// The seeded request stream of a serve workload.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: StdRng,
    next_id: u64,
    pool_size: usize,
    /// `serve_hot`'s repeated corpora; empty for `serve_cold`.
    hot: Vec<Plan>,
}

impl RequestStream {
    /// `serve_cold`: every request a fresh corpus, alternating suite kinds.
    pub fn cold(seed: u64, pool_size: usize) -> RequestStream {
        RequestStream {
            rng: StdRng::seed_from_u64(derive(seed, "cold-requests")),
            next_id: 0,
            pool_size,
            hot: Vec::new(),
        }
    }

    /// `serve_hot`: requests drawn uniformly from [`HOT_POOL`] corpora.
    pub fn hot(seed: u64, pool_size: usize) -> RequestStream {
        let mut rng = StdRng::seed_from_u64(derive(seed, "hot-pool"));
        // Sizes stratified over the distribution: every seed repeats the same
        // mix of sizes, so seeds differ in content, not in average cost.
        let hot = (0..HOT_POOL as u64)
            .map(|i| {
                let u = (i as f64 + rng.gen::<f64>()) / HOT_POOL as f64;
                fresh_plan(&mut rng, i, pool_size, u)
            })
            .collect();
        RequestStream {
            rng: StdRng::seed_from_u64(derive(seed, "hot-requests")),
            next_id: 0,
            pool_size,
            hot,
        }
    }

    /// The next request.
    pub fn next_plan(&mut self) -> Plan {
        let id = self.next_id;
        self.next_id += 1;
        if self.hot.is_empty() {
            let u = self.rng.gen::<f64>();
            fresh_plan(&mut self.rng, id, self.pool_size, u)
        } else {
            let pick = &self.hot[self.rng.gen_range(0..self.hot.len())];
            Plan { id, ..pick.clone() }
        }
    }
}

/// The seeded `serve_hot` swap schedule: completed requests between swaps.
#[derive(Debug, Clone)]
pub struct SwapSchedule {
    rng: StdRng,
}

impl SwapSchedule {
    /// The schedule of run `seed`.
    pub fn new(seed: u64) -> SwapSchedule {
        SwapSchedule {
            rng: StdRng::seed_from_u64(derive(seed, "swaps")),
        }
    }

    /// Completed requests until the next swap.
    pub fn next_gap(&mut self) -> u64 {
        self.rng.gen_range(SWAP_GAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated input of run `seed`, as bytes.
    fn input_bytes(seed: u64) -> Vec<u8> {
        let insts = instruction_set();
        let plan = TrainPlan::new(seed);
        let mut out = format!("{plan:?}\n");
        for kind in KINDS {
            for config in [plan.cell_suite, plan.score_suite] {
                for block in generate_suite(kind, &insts, &config) {
                    out.push_str(&block.render(&insts));
                    out.push('\n');
                }
            }
        }
        let pools: Vec<BlockPool> = KINDS
            .iter()
            .map(|&k| BlockPool::generate(k, &insts, seed, 2000))
            .collect();
        let mut cold = RequestStream::cold(seed, 2000);
        let mut hot = RequestStream::hot(seed, 2000);
        for _ in 0..20 {
            out.push_str(&corpus_text(&pools, &cold.next_plan()));
            out.push_str(&corpus_text(&pools, &hot.next_plan()));
        }
        let mut swaps = SwapSchedule::new(seed);
        for _ in 0..20 {
            write!(out, "{} ", swaps.next_gap()).unwrap();
        }
        out.into_bytes()
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        let a = input_bytes(7);
        assert_eq!(a, input_bytes(7));
        assert_ne!(a, input_bytes(8));
    }

    #[test]
    fn seed_zero_is_the_quick_campaign() {
        let quick = CampaignConfig::quick();
        let plan = TrainPlan::new(0);
        assert_eq!(plan.training_noise, quick.noise);
        assert_eq!(plan.native_noise, quick.noise);
        assert_eq!(plan.cell_suite, quick.suite);
    }

    #[test]
    fn requests_stay_in_bounds_and_alternate_kinds() {
        let mut stream = RequestStream::cold(3, 500);
        let mut sizes = Vec::new();
        for i in 0..400 {
            let plan = stream.next_plan();
            assert_eq!(plan.kind, i % 2);
            assert!((MIN_BLOCKS..=MAX_BLOCKS).contains(&plan.blocks.len()));
            assert!(plan.blocks.iter().all(|&b| b < 500));
            sizes.push(plan.blocks.len());
        }
        // Heavy-tailed: both ends of the range show up.
        assert!(sizes.iter().any(|&s| s < 100) && sizes.iter().any(|&s| s > 2000));

        let mut hot = RequestStream::hot(3, 500);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            distinct.insert(hot.next_plan().blocks);
        }
        assert!(distinct.len() <= HOT_POOL);
    }

    #[test]
    fn both_presets_share_the_instruction_set() {
        let skl = palmed_machine::presets::skl_sp(&inventory());
        let zen = palmed_machine::presets::zen1(&inventory());
        assert_eq!(*skl.instructions, instruction_set());
        assert_eq!(*zen.instructions, instruction_set());
    }
}
