//! The four workloads: what each one is, why it exists, and how its
//! inputs are generated from the world seed.
//!
//! The engines never see the seed itself, only the generated
//! `Tree` / `DocMix` / `BarrierOp`s (and `PacketSimConfig::seed`, which is
//! part of the simulated world).

use ww_core::packet::{BarrierOp, PacketSimConfig};
use ww_model::{DocId, NodeId, RateVector, Tree};
use ww_workload::{DocMix, Zipf};

/// Problem size: the recorded benchmark, or a tenth of the nodes for
/// `--smoke` and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SeqCdn,
    ParSkewW2,
    DistCdnW2,
    ChurnCdn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SeqCdn,
        Workload::ParSkewW2,
        Workload::DistCdnW2,
        Workload::ChurnCdn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqCdn => "seq_cdn",
            Workload::ParSkewW2 => "par_skew_w2",
            Workload::DistCdnW2 => "dist_cdn_w2",
            Workload::ChurnCdn => "churn_cdn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed repetitions at the nominal run length
    /// ([`NOMINAL_SECONDS`]). Fixed per workload rather than time-based,
    /// so a parent and a change do identical work.
    fn nominal_reps(self) -> usize {
        match self {
            Workload::SeqCdn => 13,
            Workload::ParSkewW2 => 9,
            Workload::DistCdnW2 => 10,
            Workload::ChurnCdn => 9,
        }
    }

    /// Timed repetitions for a `--seconds` request: the nominal count
    /// scaled by the requested run length, never under three.
    pub fn reps(self, seconds: u64, scale: Scale) -> usize {
        if scale == Scale::Smoke {
            return 3;
        }
        let scaled = (self.nominal_reps() as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        (scaled as usize).max(3)
    }

    /// Simulated epochs to the horizon.
    pub fn epochs(self) -> usize {
        match self {
            Workload::ChurnCdn => 6,
            _ => 8,
        }
    }

    /// Simulated seconds per epoch: the diffusion period, except on
    /// `churn_cdn`, where half-length epochs keep the barrier storms near
    /// 40 % of a repetition.
    pub fn epoch_secs(self) -> f64 {
        match self {
            Workload::ChurnCdn => 0.5,
            _ => 1.0,
        }
    }

    /// Engine worker threads (never above the host's two cores).
    pub fn workers(self) -> usize {
        match self {
            Workload::SeqCdn | Workload::ChurnCdn => 1,
            Workload::ParSkewW2 | Workload::DistCdnW2 => 2,
        }
    }
}

/// `run_seconds` in `BENCHMARK.json`: the run length the repetition
/// counts above are sized for.
pub const NOMINAL_SECONDS: u64 = 24;

/// SplitMix64: the benchmark's own generator, so world generation does
/// not depend on any crate under test.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything an engine constructor and the driver loop need.
#[derive(Debug, Clone)]
pub struct Demand {
    pub mix: DocMix,
    pub config: PacketSimConfig,
    /// One `apply_all` storm after each epoch (`churn_cdn` only).
    pub storms: Vec<Vec<BarrierOp>>,
}

/// `(regions, leaves)` of the two-level CDN trees, `depth` of the binary
/// tree. Smoke is a tenth of the nodes.
fn shape(workload: Workload, scale: Scale) -> (usize, usize) {
    match (workload, scale) {
        (Workload::SeqCdn | Workload::DistCdnW2, Scale::Full) => (180, 180),
        (Workload::SeqCdn | Workload::DistCdnW2, Scale::Smoke) => (57, 56),
        (Workload::ChurnCdn, Scale::Full) => (220, 220),
        (Workload::ChurnCdn, Scale::Smoke) => (70, 68),
        (Workload::ParSkewW2, Scale::Full) => (2, 14),
        (Workload::ParSkewW2, Scale::Smoke) => (2, 11),
    }
}

pub fn build_tree(workload: Workload, scale: Scale) -> Tree {
    let (a, b) = shape(workload, scale);
    match workload {
        Workload::ParSkewW2 => ww_topology::k_ary(a, b),
        _ => ww_topology::two_level(a, b),
    }
}

/// A shared-Zipf mix whose rank → document assignment is `order`.
fn zipf_mix(tree: &Tree, rates: &RateVector, order: &[u64]) -> DocMix {
    let zipf = Zipf::new(order.len(), 1.0).expect("valid zipf parameters");
    let mut mix = DocMix::new(tree.len());
    for (node, rate) in rates.iter() {
        if rate <= 0.0 {
            continue;
        }
        for (rank, share) in zipf.rate_split(rate).into_iter().enumerate() {
            mix.set(node, DocId::new(order[rank]), share);
        }
    }
    mix
}

fn shuffled_docs(rng: &mut SplitMix, docs: usize) -> Vec<u64> {
    let mut order: Vec<u64> = (0..docs as u64).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

pub fn build_demand(workload: Workload, scale: Scale, seed: u64, tree: &Tree) -> Demand {
    // dist_cdn_w2 is seq_cdn's world by definition: same stream.
    let stream = match workload {
        Workload::DistCdnW2 => Workload::SeqCdn as u64,
        w => w as u64,
    };
    let mut rng = SplitMix(seed ^ (stream << 56));
    let config = PacketSimConfig {
        seed: rng.next_u64(),
        ..PacketSimConfig::default()
    };
    match workload {
        Workload::SeqCdn | Workload::DistCdnW2 => {
            let order = shuffled_docs(&mut rng, 8);
            let rates = ww_workload::leaf_only(tree, 1.0);
            Demand {
                mix: zipf_mix(tree, &rates, &order),
                config,
                storms: Vec::new(),
            }
        }
        Workload::ParSkewW2 => {
            let order = shuffled_docs(&mut rng, 12);
            // The flash crowd is a quarter-subtree under node 1: node 3
            // or node 4, mirror images inside the shard the two-way
            // partition peels off. Nodes 5 and 6 sit in the root's shard
            // and run at a different speed, which would make throughput
            // depend on the seed.
            let hot_root = NodeId::new(3 + rng.below(2));
            let mut rates = vec![0.05; tree.len()];
            for u in tree.subtree_nodes(hot_root) {
                rates[u.index()] = 2.5;
            }
            Demand {
                mix: zipf_mix(tree, &RateVector::from(rates), &order),
                config,
                storms: Vec::new(),
            }
        }
        Workload::ChurnCdn => {
            let order = shuffled_docs(&mut rng, 8);
            let rates = ww_workload::leaf_only(tree, 1.0);
            let mix = zipf_mix(tree, &rates, &order);
            let storms = churn_storms(&mut rng, scale, tree, &order);
            Demand {
                mix,
                config,
                storms,
            }
        }
    }
}

/// One storm per epoch, every op valid on the tree as churned so far.
///
/// Ids stay predictable because only leaves leave: a departure
/// swap-removes, so the freed leaf id is taken by the former last node,
/// itself a leaf; region ids (`1..=regions`) never move.
fn churn_storms(
    rng: &mut SplitMix,
    scale: Scale,
    tree: &Tree,
    order: &[u64],
) -> Vec<Vec<BarrierOp>> {
    let (regions, _) = shape(Workload::ChurnCdn, scale);
    let first_leaf = 1 + regions;
    let original_len = tree.len();
    let mut churned = tree.clone();
    let mut storms = Vec::new();
    let mut failed_region = NodeId::new(1);
    for epoch in 0..Workload::ChurnCdn.epochs() {
        let mut ops = Vec::new();
        for _ in 0..2 {
            let parent = NodeId::new(1 + rng.below(regions));
            churned.add_leaf(parent).expect("region exists");
            ops.push(BarrierOp::AddLeaf { parent, rate: 40.0 });
        }
        let leaving = NodeId::new(first_leaf + rng.below(original_len - first_leaf));
        churned.remove_leaf(leaving).expect("leaf ids stay leaves");
        ops.push(BarrierOp::RemoveLeaf { node: leaving });
        ops.push(BarrierOp::PublishDoc {
            doc: DocId::new(100 + epoch as u64),
            origin: NodeId::new(first_leaf + rng.below(original_len - first_leaf)),
            rate: 20.0,
        });
        ops.push(BarrierOp::Invalidate {
            doc: DocId::new(order[epoch % order.len()]),
        });
        if epoch % 2 == 0 {
            failed_region = NodeId::new(1 + rng.below(regions));
            ops.push(BarrierOp::FailLink {
                node: failed_region,
            });
        } else {
            ops.push(BarrierOp::HealLink {
                node: failed_region,
            });
            // Hot-set rotation: the popularity ranks shift by one.
            let mut rotated = order.to_vec();
            rotated.rotate_left(epoch);
            let rates = ww_workload::leaf_only(&churned, 1.0);
            ops.push(BarrierOp::SetMix {
                mix: zipf_mix(&churned, &rates, &rotated),
            });
        }
        storms.push(ops);
    }
    storms
}
