//! Baseline document-service schemes the paper positions WebWave against.
//!
//! * [`no_caching`] — the status quo: the home server serves everything.
//! * [`directory_cache`] — the Harvest/ICP-style cooperative cache with a
//!   cache directory service: any node may serve any request (no NSS), so
//!   perfect GLE is achievable, but *every request* pays directory
//!   control messages — the scalability bottleneck of Section 1.
//! * [`dns_round_robin`] — NCSA-style DNS rotation over `k` fixed replica
//!   sites [21, 24]: load splits evenly over the replicas regardless of
//!   where clients are.
//! * [`gle_migration`] — unconstrained diffusion over the tree *graph*
//!   (Section 2's classic method): converges to uniform load but ignores
//!   NSS, so the resulting assignment may be unservable without a
//!   directory; the report measures that violation.
//!
//! Every scheme returns a [`SchemeReport`] with the same metrics so the
//! comparison experiment (A1, `ww_experiments::baseline_study`) can
//! print one table.

use crate::baselines::metrics::{mean_service_hops, mean_tree_distance};
use crate::diffusion::{DiffusionMatrix, SyncDiffusion};
use crate::fold::webfold;
use crate::wave::{RateWave, WaveConfig};
use ww_model::{LoadAssignment, NodeId, RateVector, Tree};
use ww_topology::Graph;

/// Comparable outcome of one scheme on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeReport {
    /// Scheme name for tables.
    pub name: String,
    /// The served-rate vector the scheme induces.
    pub load: RateVector,
    /// Maximum per-node load (the capacity bound / inverse throughput).
    pub max_load: f64,
    /// Euclidean distance to perfect GLE (uniform load).
    pub distance_to_gle: f64,
    /// Control messages per served request (directory lookups, gossip
    /// amortized, DNS queries).
    pub control_msgs_per_request: f64,
    /// Mean hops a request's *data path* travels to its server.
    pub data_hops_per_request: f64,
    /// Whether the assignment violates no-sibling-sharing (needs a
    /// directory or redirect infrastructure to be servable).
    pub violates_nss: bool,
}

/// The no-caching baseline: the home server carries the entire demand.
pub fn no_caching(tree: &Tree, spontaneous: &RateVector) -> SchemeReport {
    let mut load = RateVector::zeros(tree.len());
    load[tree.root()] = spontaneous.total();
    let hops = mean_service_hops(tree, spontaneous, &load);
    SchemeReport {
        name: "no-cache".into(),
        max_load: load.max(),
        distance_to_gle: load.distance_to_uniform(),
        control_msgs_per_request: 0.0,
        data_hops_per_request: hops,
        violates_nss: false,
        load,
    }
}

/// The directory-based cooperative cache: a cache directory service
/// tracks every copy and redirects each request to the globally least
/// loaded server, achieving perfect GLE.
///
/// Costs: `lookup_msgs` control messages per request (query + response
/// against the directory, as in ICP), and an off-route data path to a
/// uniformly selected server.
pub fn directory_cache(tree: &Tree, spontaneous: &RateVector, lookup_msgs: f64) -> SchemeReport {
    let n = tree.len();
    let load = RateVector::uniform(n, spontaneous.total() / n as f64);
    // Data path: origin -> assigned server, uniform over all servers.
    let uniform = RateVector::uniform(n, 1.0);
    let total = spontaneous.total();
    let hops = if total > 0.0 {
        spontaneous
            .iter()
            .filter(|&(_, e)| e > 0.0)
            .map(|(origin, e)| e * mean_tree_distance(tree, origin, &uniform))
            .sum::<f64>()
            / total
    } else {
        0.0
    };
    let violates = !LoadAssignment::new(tree, spontaneous, load.clone())
        .expect("shapes match")
        .satisfies_nss(1e-9);
    SchemeReport {
        name: "directory".into(),
        max_load: load.max(),
        distance_to_gle: 0.0,
        control_msgs_per_request: lookup_msgs,
        data_hops_per_request: hops,
        violates_nss: violates,
        load,
    }
}

/// DNS round-robin over `replicas` fixed sites: the first `replicas`
/// nodes in BFS order (the "best-connected" servers) each take an equal
/// share of the total demand; one DNS query per request session.
///
/// # Panics
///
/// Panics if `replicas` is zero or exceeds the tree size.
pub fn dns_round_robin(tree: &Tree, spontaneous: &RateVector, replicas: usize) -> SchemeReport {
    assert!(
        replicas >= 1 && replicas <= tree.len(),
        "replica count must be in 1..=n"
    );
    let sites: Vec<NodeId> = tree.bfs_order()[..replicas].to_vec();
    let mut load = RateVector::zeros(tree.len());
    let share = spontaneous.total() / replicas as f64;
    let mut site_weights = RateVector::zeros(tree.len());
    for &s in &sites {
        load[s] = share;
        site_weights[s] = 1.0;
    }
    let total = spontaneous.total();
    let hops = if total > 0.0 {
        spontaneous
            .iter()
            .filter(|&(_, e)| e > 0.0)
            .map(|(origin, e)| e * mean_tree_distance(tree, origin, &site_weights))
            .sum::<f64>()
            / total
    } else {
        0.0
    };
    let violates = !LoadAssignment::new(tree, spontaneous, load.clone())
        .expect("shapes match")
        .satisfies_nss(1e-9);
    SchemeReport {
        name: format!("dns-rr-{replicas}"),
        max_load: load.max(),
        distance_to_gle: load.distance_to_uniform(),
        control_msgs_per_request: 1.0, // the DNS query
        data_hops_per_request: hops,
        violates_nss: violates,
        load,
    }
}

/// Unconstrained GLE diffusion over the tree graph (Cybenko's method with
/// no NSS constraint), run for `iterations` synchronous steps.
///
/// This is what generic load balancing would do; the report records that
/// the result, while uniform, violates NSS — serving it would require a
/// directory.
pub fn gle_migration(tree: &Tree, spontaneous: &RateVector, iterations: usize) -> SchemeReport {
    let graph = Graph::from(tree);
    let mut initial = RateVector::zeros(tree.len());
    initial[tree.root()] = spontaneous.total();
    let load = match DiffusionMatrix::default_alpha(&graph) {
        Some(matrix) => {
            let mut run = SyncDiffusion::new(matrix, initial);
            run.run(iterations);
            run.load().clone()
        }
        None => initial, // single-node tree
    };
    let violates = !LoadAssignment::new(tree, spontaneous, load.clone())
        .expect("shapes match")
        .satisfies_nss(1e-9);
    // Data path: migrated load is served wherever it landed; requests
    // reach it through redirects — model as uniform server selection.
    let uniform = RateVector::uniform(tree.len(), 1.0);
    let total = spontaneous.total();
    let hops = if total > 0.0 {
        spontaneous
            .iter()
            .filter(|&(_, e)| e > 0.0)
            .map(|(origin, e)| e * mean_tree_distance(tree, origin, &uniform))
            .sum::<f64>()
            / total
    } else {
        0.0
    };
    SchemeReport {
        name: "gle-migration".into(),
        max_load: load.max(),
        distance_to_gle: load.distance_to_uniform(),
        control_msgs_per_request: 0.0,
        data_hops_per_request: hops,
        violates_nss: violates,
        load,
    }
}

/// WebWave itself (rate-level protocol run to convergence), for the same
/// comparison table. `gossip_msgs_per_request` amortizes the periodic
/// per-edge gossip over the served demand: with gossip period `T_g`,
/// each edge carries `2/T_g` messages per second regardless of load, so
/// the per-request overhead *vanishes* as demand grows — the paper's
/// scalability argument.
pub fn webwave(
    tree: &Tree,
    spontaneous: &RateVector,
    rounds: usize,
    gossip_per_second: f64,
) -> SchemeReport {
    let mut wave = RateWave::new(tree, spontaneous, WaveConfig::default());
    wave.run(rounds);
    let load = wave.load().clone();
    let hops = mean_service_hops(tree, spontaneous, &load);
    let total = spontaneous.total();
    let edges = (tree.len() - 1) as f64;
    let control = if total > 0.0 {
        2.0 * edges * gossip_per_second / total
    } else {
        0.0
    };
    SchemeReport {
        name: "webwave".into(),
        max_load: load.max(),
        distance_to_gle: load.distance_to_uniform(),
        control_msgs_per_request: control,
        data_hops_per_request: hops,
        violates_nss: false,
        load,
    }
}

/// The off-line optimum (WebFold), for reference rows in tables.
pub fn webfold_oracle(tree: &Tree, spontaneous: &RateVector) -> SchemeReport {
    let load = webfold(tree, spontaneous).into_load();
    let hops = mean_service_hops(tree, spontaneous, &load);
    SchemeReport {
        name: "webfold-oracle".into(),
        max_load: load.max(),
        distance_to_gle: load.distance_to_uniform(),
        control_msgs_per_request: 0.0,
        data_hops_per_request: hops,
        violates_nss: false,
        load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::paper;

    #[test]
    fn no_cache_concentrates_everything_at_root() {
        let s = paper::fig6();
        let r = no_caching(&s.tree, &s.spontaneous);
        assert_eq!(r.max_load, s.total_demand());
        assert_eq!(r.control_msgs_per_request, 0.0);
        assert!(!r.violates_nss);
    }

    #[test]
    fn directory_achieves_gle_but_violates_nss_when_tlb_cannot() {
        let s = paper::fig2b(); // GLE infeasible under NSS
        let r = directory_cache(&s.tree, &s.spontaneous, 2.0);
        assert_eq!(r.distance_to_gle, 0.0);
        assert!(r.violates_nss, "GLE must require sibling sharing here");
        assert_eq!(r.control_msgs_per_request, 2.0);
    }

    #[test]
    fn directory_on_gle_feasible_workload_does_not_violate() {
        let s = paper::fig2a();
        let r = directory_cache(&s.tree, &s.spontaneous, 2.0);
        assert!(!r.violates_nss);
    }

    #[test]
    fn dns_round_robin_balances_over_k_sites_only() {
        let s = paper::fig6();
        let r = dns_round_robin(&s.tree, &s.spontaneous, 3);
        let served: Vec<f64> = r
            .load
            .as_slice()
            .iter()
            .copied()
            .filter(|&x| x > 0.0)
            .collect();
        assert_eq!(served.len(), 3);
        assert!((r.max_load - s.total_demand() / 3.0).abs() < 1e-9);
    }

    #[test]
    fn gle_migration_uniformizes_but_needs_a_directory() {
        let s = paper::fig2b();
        let r = gle_migration(&s.tree, &s.spontaneous, 3000);
        assert!(r.distance_to_gle < 1e-6);
        assert!(r.violates_nss);
    }

    #[test]
    fn webwave_matches_oracle_max_load() {
        let s = paper::fig6();
        let ww = webwave(&s.tree, &s.spontaneous, 5000, 2.0);
        let oracle = webfold_oracle(&s.tree, &s.spontaneous);
        assert!(
            (ww.max_load - oracle.max_load).abs() < 0.01 * oracle.max_load,
            "webwave {} vs oracle {}",
            ww.max_load,
            oracle.max_load
        );
        assert!(!ww.violates_nss);
    }

    #[test]
    fn webwave_beats_no_cache_and_dns_on_max_load() {
        let s = paper::fig6();
        let ww = webwave(&s.tree, &s.spontaneous, 4000, 2.0);
        let replicas = (s.tree.len() / 4).clamp(1, 16);
        let dns = dns_round_robin(&s.tree, &s.spontaneous, replicas);
        assert!(ww.max_load < no_caching(&s.tree, &s.spontaneous).max_load);
        assert!(ww.max_load <= dns.max_load + 1e-9);
    }

    #[test]
    fn webwave_data_path_stays_on_route() {
        // WebWave serves on the request path; the directory picks servers
        // anywhere, including off-route subtrees. With demand at one leaf
        // of a branching tree, off-route detours cost extra hops.
        let tree = ww_topology::binary(4);
        let n = tree.len();
        let mut e = RateVector::zeros(n);
        e[NodeId::new(n - 1)] = 100.0;
        let ww = webwave(&tree, &e, 8000, 2.0);
        let dir = directory_cache(&tree, &e, 2.0);
        assert!(
            ww.data_hops_per_request < dir.data_hops_per_request,
            "webwave {} vs directory {}",
            ww.data_hops_per_request,
            dir.data_hops_per_request
        );
    }

    #[test]
    fn webwave_control_overhead_amortizes_with_demand() {
        let s = paper::fig6();
        let light = webwave(&s.tree, &s.spontaneous, 100, 2.0);
        let heavy = webwave(&s.tree, &s.spontaneous.scale(100.0), 100, 2.0);
        assert!(
            heavy.control_msgs_per_request < light.control_msgs_per_request / 50.0,
            "gossip must amortize: light {} heavy {}",
            light.control_msgs_per_request,
            heavy.control_msgs_per_request
        );
    }
}
