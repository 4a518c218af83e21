//! A cluster of cooperating cache servers, one OS thread each.
//!
//! The paper's WebWave servers are independent processes that exchange
//! gossip and shift load over the network using only local information.
//! This module realizes that literally: every tree node runs as its own
//! thread, connected to its parent and children by message channels.
//! There is no global clock, no shared state and no coordinator — just
//! [`Message::Gossip`] (my load, my forwarded rate) and
//! [`Message::Transfer`] (take over this much of my future request rate),
//! exactly the information Figure 5 assumes.
//!
//! The run is asynchronous (threads interleave at the scheduler's whim),
//! so this is the Bertsekas-Tsitsiklis regime: convergence to TLB is
//! approximate within the gossip staleness, and the tests bound the final
//! distance rather than demanding exactness.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread;
use ww_core::fold::webfold;
use ww_model::{NodeId, RateVector, Tree};

/// Messages exchanged between neighboring cache servers.
#[derive(Debug, Clone, Copy)]
pub enum Message {
    /// Periodic load report: (sender, served rate `L`, forwarded rate `A`).
    Gossip {
        /// The reporting neighbor.
        from: NodeId,
        /// Its current served rate.
        load: f64,
        /// Its current forwarded rate.
        forwarded: f64,
    },
    /// A load delegation: the sender relegates `amount` req/s of future
    /// requests to the receiver.
    Transfer {
        /// The delegating neighbor.
        from: NodeId,
        /// Request rate being delegated.
        amount: f64,
    },
}

/// Configuration of a threaded cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Diffusion parameter; `None` selects `1/(max_degree + 1)`.
    pub alpha: Option<f64>,
    /// Number of local protocol rounds each server executes.
    pub rounds: usize,
    /// Channel capacity per neighbor link.
    pub channel_capacity: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            alpha: None,
            // Long enough that a run outlasts a scheduler time slice: at
            // 4000 rounds (1-2 ms) a server could finish before a
            // descheduled neighbour ran at all, and the loads stopped
            // wherever that left them.
            rounds: 40_000,
            channel_capacity: 1024,
        }
    }
}

/// Result of a finished cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Final served rate at every node.
    pub loads: RateVector,
    /// The TLB oracle for the offered demand.
    pub oracle: RateVector,
    /// Euclidean distance of the final loads to the oracle.
    pub distance: f64,
    /// Total messages exchanged (gossip + transfers).
    pub messages: u64,
}

struct Neighbor {
    id: NodeId,
    tx: Sender<Message>,
    /// Latest gossiped (load, forwarded) of this neighbor.
    load: f64,
    forwarded: f64,
    is_parent: bool,
}

/// Runs the WebWave protocol on `tree` with one thread per node and
/// returns the final load distribution.
///
/// Starts cold: the home server (root) initially carries the entire
/// demand, exactly as in the rate-level engine.
///
/// # Panics
///
/// Panics if `spontaneous` does not validate against `tree`, if `alpha`
/// is outside `(0, 1)`, or if a worker thread panics.
///
/// # Example
///
/// ```
/// use ww_topology::paper;
/// use ww_runtime::{run_cluster, ClusterConfig};
///
/// let s = paper::fig2b();
/// let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
/// // Converges to within a fraction of the total demand of the oracle.
/// assert!(report.distance < 0.05 * s.total_demand());
/// ```
pub fn run_cluster(tree: &Tree, spontaneous: &RateVector, config: ClusterConfig) -> ClusterReport {
    spontaneous
        .validate_for(tree)
        .expect("spontaneous rates must match the tree");
    let n = tree.len();
    let max_deg = tree
        .nodes()
        .map(|u| tree.children(u).len() + usize::from(tree.parent(u).is_some()))
        .max()
        .unwrap_or(0)
        .max(1);
    let alpha = config.alpha.unwrap_or(1.0 / (max_deg as f64 + 1.0));
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");

    let oracle = webfold(tree, spontaneous).into_load();

    // One channel per node; every neighbor holds a sender into it.
    let mut txs = Vec::with_capacity(n);
    let mut rxs: Vec<Option<Receiver<Message>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded::<Message>(config.channel_capacity.max(8));
        txs.push(tx);
        rxs.push(Some(rx));
    }

    let results = Arc::new(Mutex::new(vec![0.0f64; n]));
    let message_count = Arc::new(Mutex::new(0u64));

    thread::scope(|scope| {
        for (i, rx_slot) in rxs.iter_mut().enumerate() {
            let node = NodeId::new(i);
            let rx = rx_slot.take().expect("receiver taken once");
            let mut neighbors: Vec<Neighbor> = Vec::new();
            if let Some(p) = tree.parent(node) {
                neighbors.push(Neighbor {
                    id: p,
                    tx: txs[p.index()].clone(),
                    load: 0.0,
                    forwarded: 0.0,
                    is_parent: true,
                });
            }
            for &c in tree.children(node) {
                neighbors.push(Neighbor {
                    id: c,
                    tx: txs[c.index()].clone(),
                    load: 0.0,
                    forwarded: 0.0,
                    is_parent: false,
                });
            }
            let is_root = tree.parent(node).is_none();
            let e_i = spontaneous[node];
            let total_demand = spontaneous.total();
            let results = Arc::clone(&results);
            let message_count = Arc::clone(&message_count);

            scope.spawn(move || {
                // Cold start: the root serves everything.
                let mut load = if is_root { total_demand } else { 0.0 };
                let mut sent = 0u64;
                for _ in 0..config.rounds {
                    // Drain the mailbox: gossip updates and transfers.
                    while let Ok(msg) = rx.try_recv() {
                        match msg {
                            Message::Gossip {
                                from,
                                load: l,
                                forwarded: a,
                            } => {
                                if let Some(nb) = neighbors.iter_mut().find(|nb| nb.id == from) {
                                    nb.load = l;
                                    nb.forwarded = a;
                                }
                            }
                            Message::Transfer { amount, .. } => {
                                load += amount;
                            }
                        }
                    }

                    // Recompute local flow bounds from children's reports.
                    let through = e_i
                        + neighbors
                            .iter()
                            .filter(|nb| !nb.is_parent)
                            .map(|nb| nb.forwarded)
                            .sum::<f64>();
                    if is_root {
                        // Constraint 1: the home server absorbs the rest.
                        load = through;
                    } else {
                        load = load.clamp(0.0, through);
                    }
                    let forwarded = (through - load).max(0.0);

                    // Diffusion: relegate future requests to less loaded
                    // neighbors (NSS-bounded toward children).
                    for nb in &neighbors {
                        if load <= nb.load {
                            continue;
                        }
                        let delta = if nb.is_parent {
                            // Upward shifts are free: requests flow up
                            // anyway; bounded by what we currently serve.
                            (alpha * (load - nb.load)).min(load)
                        } else {
                            // Downward shifts are NSS-bounded by the
                            // child's forwarded rate.
                            (alpha * (load - nb.load)).min(nb.forwarded)
                        };
                        if delta > 1e-12
                            && nb
                                .tx
                                .try_send(Message::Transfer {
                                    from: node,
                                    amount: delta,
                                })
                                .is_ok()
                        {
                            load -= delta;
                            sent += 1;
                        }
                    }

                    // Gossip the post-shift state to every neighbor.
                    for nb in &neighbors {
                        if nb
                            .tx
                            .try_send(Message::Gossip {
                                from: node,
                                load,
                                forwarded,
                            })
                            .is_ok()
                        {
                            sent += 1;
                        }
                    }
                    thread::yield_now();
                }
                results.lock()[i] = load;
                *message_count.lock() += sent;
            });
        }
    });

    let loads = RateVector::from(
        Arc::try_unwrap(results)
            .expect("threads joined")
            .into_inner(),
    );
    let distance = loads.euclidean_distance(&oracle);
    let messages = *message_count.lock();
    ClusterReport {
        loads,
        oracle,
        distance,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::paper;

    #[test]
    fn fig2a_cluster_reaches_gle() {
        let s = paper::fig2a();
        let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
        assert!(
            report.distance < 0.03 * s.total_demand(),
            "distance {}",
            report.distance
        );
    }

    #[test]
    fn fig2b_cluster_approaches_non_gle_tlb() {
        let s = paper::fig2b();
        let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
        assert!(
            report.distance < 0.05 * s.total_demand(),
            "distance {}",
            report.distance
        );
        // The oracle embedded in the report is the WebFold output.
        assert_eq!(report.oracle.as_slice(), paper::fig2b_tlb().as_slice());
    }

    #[test]
    fn fig6_cluster_converges() {
        let s = paper::fig6();
        let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
        assert!(
            report.distance < 0.05 * s.total_demand(),
            "distance {}",
            report.distance
        );
    }

    #[test]
    fn totals_are_preserved_approximately() {
        let s = paper::fig4();
        let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
        assert!(
            (report.loads.total() - s.total_demand()).abs() < 0.02 * s.total_demand(),
            "total {} vs demand {}",
            report.loads.total(),
            s.total_demand()
        );
    }

    #[test]
    fn messages_were_exchanged() {
        let s = paper::fig2a();
        let report = run_cluster(&s.tree, &s.spontaneous, ClusterConfig::default());
        assert!(report.messages > 0);
    }

    #[test]
    fn single_node_cluster_trivially_serves_demand() {
        let tree = Tree::from_parents(&[None]).unwrap();
        let e = RateVector::from(vec![42.0]);
        let cfg = ClusterConfig {
            rounds: 10,
            ..ClusterConfig::default()
        };
        let report = run_cluster(&tree, &e, cfg);
        assert_eq!(report.loads.as_slice(), &[42.0]);
        assert_eq!(report.distance, 0.0);
    }

    #[test]
    fn longer_runs_get_closer_to_tlb() {
        let s = paper::fig6();
        let distance_after = |rounds: usize| {
            let cfg = ClusterConfig {
                rounds,
                ..ClusterConfig::default()
            };
            run_cluster(&s.tree, &s.spontaneous, cfg).distance
        };
        let short = distance_after(5);
        let long = distance_after(4000);
        assert!(
            long < short * 0.5,
            "long-run distance {long} should be well below short-run {short}"
        );
    }
}
