//! Cluster assembly: CAS trust bootstrap, trusted counter protection
//! group, node startup, crash/restart for the failure tests.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;

use treaty_cas::{bootstrap_cluster, Cas, ClusterConfig, Las};
use treaty_counter::{CounterBackend, NullBackend, RoteGroup, RoteReplica};
use treaty_crypto::{Key, KeyHierarchy, SecureEnvelope};
use treaty_net::fabric::Datagram;
use treaty_net::{EndpointConfig, EndpointId, Fabric};
use treaty_sched::CorePool;
use treaty_sim::{CostModel, SecurityProfile, Transport};
use treaty_store::env::{protection, EngineConfig, Env};
use treaty_store::{TreatyStore, TxnMode};

use crate::client::TreatyClient;
use crate::node::{NodeOptions, RecoveryOutcome, TreatyNode};
use crate::shard::ShardMap;
use crate::{Result, TreatyError};

/// First fabric endpoint for server nodes.
pub const NODE_BASE: EndpointId = 1;
/// First fabric endpoint for trusted counter replicas.
pub const COUNTER_BASE: EndpointId = 1000;
/// Trusted counter protection group size.
pub const COUNTER_REPLICAS: u32 = 3;
/// First fabric endpoint for per-node counter clients.
pub const COUNTER_CLIENT_BASE: EndpointId = 2000;
/// First fabric endpoint for clients.
pub const CLIENT_BASE: EndpointId = 5000;
/// CPU cores per node (paper testbed: 8).
pub const CORES_PER_NODE: u32 = 8;
/// How long [`Cluster::client`] waits for a reply: the coordinator's vote
/// wait (`DEFAULT_RPC_TIMEOUT`) plus the abort's decision record, a Clog
/// append and a counter round of 10 ms RPCs, so a commit refused on a lost
/// vote reaches the client as `Aborted`, not as a timeout of its own.
pub const CLIENT_RPC_TIMEOUT: treaty_sim::Nanos = 2 * treaty_net::DEFAULT_RPC_TIMEOUT;

/// Cluster construction options.
#[derive(Clone)]
pub struct ClusterOptions {
    /// Number of Treaty nodes (the paper uses 3).
    pub nodes: usize,
    /// Security profile of the system variant under test.
    pub profile: SecurityProfile,
    /// Cost model.
    pub costs: CostModel,
    /// Concurrency control for node-local transactions.
    pub txn_mode: TxnMode,
    /// `false` runs the storage-less 2PC of §VIII-B (NullEngine, no Clog,
    /// no snapshot lane).
    pub durable: bool,
    /// Engine sizing.
    pub engine_config: EngineConfig,
    /// Directory holding one subdirectory per node.
    pub base_dir: PathBuf,
    /// Master secret / determinism seed.
    pub seed: u64,
}

impl ClusterOptions {
    /// Paper-like defaults for the given profile, storing under `base_dir`.
    pub fn new(profile: SecurityProfile, base_dir: PathBuf) -> Self {
        ClusterOptions {
            nodes: 3,
            profile,
            costs: CostModel::default(),
            txn_mode: TxnMode::Pessimistic,
            durable: true,
            engine_config: EngineConfig::default(),
            base_dir,
            seed: 42,
        }
    }
}

/// The trusted counter replicas' endpoints.
fn counter_endpoints() -> Vec<EndpointId> {
    (0..COUNTER_REPLICAS).map(|i| COUNTER_BASE + i).collect()
}

struct NodeSlot {
    node: Option<Rc<TreatyNode>>,
    store: Option<TreatyStore>,
    env: Option<Rc<Env>>,
    cores: Rc<CorePool>,
}

/// A running Treaty cluster (fabric + CAS + counter group + nodes).
pub struct Cluster {
    fabric: Rc<Fabric>,
    options: ClusterOptions,
    keys: KeyHierarchy,
    shard_map: ShardMap,
    slots: Vec<NodeSlot>,
    replicas: Vec<Rc<RoteReplica>>,
    cas: Rc<Cas>,
    lases: Vec<Las>,
    next_client: Cell<u32>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Boots a cluster: attests every node through the CAS/LAS chain,
    /// starts the trusted counter protection group (when stabilizing) and
    /// every Treaty node. Must run inside the simulation runtime.
    ///
    /// # Errors
    ///
    /// Propagates store/Clog recovery failures and a node quote the CAS
    /// refuses.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap attestation fails (impossible with the
    /// honest roots used here) or the base directory is unusable.
    #[allow(
        clippy::expect_used,
        reason = "documented: boot refuses an unattestable node or an unusable base directory"
    )]
    pub fn start(options: ClusterOptions) -> Result<Self> {
        let fabric = Fabric::new(options.costs.clone(), options.seed);
        let node_endpoints: Vec<u32> = (0..options.nodes).map(|i| NODE_BASE + i as u32).collect();
        let counter_endpoints = counter_endpoints();

        // Distributed trust establishment (§VI).
        let master = Key::from_bytes([options.seed as u8; 32]);
        let config = ClusterConfig {
            node_endpoints: node_endpoints.clone(),
            counter_replicas: counter_endpoints.clone(),
            shard_seed: options.seed,
        };
        let machines: Vec<String> = (0..options.nodes).map(|i| format!("machine-{i}")).collect();
        let machine_refs: Vec<&str> = machines.iter().map(|s| s.as_str()).collect();
        let (_ias, cas, lases) = bootstrap_cluster(master, config, &machine_refs);

        // Counter protection group (only consulted under stabilization,
        // but always present — like the paper's deployment).
        let keys = {
            let quote =
                lases[0].quote_instance(&treaty_cas::node_measurement(), b"bootstrap".to_vec());
            cas.register_node(node_endpoints[0], &quote)
                .expect("bootstrap attestation")
                .keys
        };
        let replicas: Vec<Rc<RoteReplica>> = if options.durable {
            std::fs::create_dir_all(&options.base_dir).expect("cluster base dir");
            counter_endpoints
                .iter()
                .map(|&e| {
                    RoteReplica::start(&fabric, e, keys.counter, keys.sealing, &options.base_dir)
                })
                .collect()
        } else {
            Vec::new()
        };

        let shard_map = ShardMap::new(node_endpoints.clone(), options.seed);
        let mut cluster = Cluster {
            fabric,
            keys,
            shard_map,
            slots: Vec::new(),
            replicas,
            cas,
            lases,
            next_client: Cell::new(CLIENT_BASE),
            options,
        };

        for i in 0..cluster.options.nodes {
            let cores = Rc::new(CorePool::new(CORES_PER_NODE));
            cluster.slots.push(NodeSlot {
                node: None,
                store: None,
                env: None,
                cores,
            });
            cluster.boot_node(i)?;
        }
        Ok(cluster)
    }

    fn node_env(&self, idx: usize, keys: KeyHierarchy) -> Rc<Env> {
        let options = &self.options;
        let backend: Rc<dyn CounterBackend> = if options.profile.stabilization {
            RoteGroup::connect(
                &self.fabric,
                COUNTER_CLIENT_BASE + idx as u32,
                keys.counter,
                counter_endpoints(),
                options.costs.counter_round_ns,
            )
        } else {
            NullBackend::new()
        };
        Env::new(
            options.profile,
            options.costs.clone(),
            Some(Rc::clone(&self.slots[idx].cores)),
            keys,
            backend,
            options.base_dir.join(format!("node-{idx}")),
            options.engine_config.clone(),
        )
    }

    fn boot_node(&mut self, idx: usize) -> Result<()> {
        let options = self.options.clone();
        let endpoint = NODE_BASE + idx as u32;
        // If a fault-injection plan crashed this node, mark it alive again
        // before recovery runs, or its fibers would keep unwinding.
        treaty_sim::crashpoint::revive_node(endpoint);

        // Every boot, a restart too, attests through the LAS (no IAS
        // round, §VI) and takes its keys from the CAS; a refused quote
        // refuses the boot.
        let machine = idx % self.lases.len();
        let quote = self.lases[machine].quote_instance(
            &treaty_cas::node_measurement(),
            endpoint.to_le_bytes().to_vec(),
        );
        let keys = self
            .cas
            .register_node(endpoint, &quote)
            .map_err(|e| TreatyError::Rejected(e.to_string()))?
            .keys;

        let store = if options.durable {
            let env = match &self.slots[idx].env {
                Some(env) => Rc::clone(env),
                None => {
                    let env = self.node_env(idx, keys);
                    self.slots[idx].env = Some(Rc::clone(&env));
                    env
                }
            };
            let store = TreatyStore::open(env).map_err(TreatyError::from)?;
            self.slots[idx].store = Some(store.clone());
            Some(store)
        } else {
            None
        };

        let node = TreatyNode::start(
            &self.fabric,
            NodeOptions {
                endpoint,
                net: EndpointConfig {
                    transport: Transport::Dpdk,
                    tee: options.profile.tee,
                    link_gbps: 40,
                },
                crypto: protection(&options.profile),
                network_key: keys.network,
                shard_map: self.shard_map.clone(),
                cores: Rc::clone(&self.slots[idx].cores),
                store,
                txn_mode: options.txn_mode,
            },
        )
        .map_err(TreatyError::from)?;
        self.slots[idx].node = Some(node);
        Ok(())
    }

    /// The CAS that attests every node boot.
    pub fn cas(&self) -> &Cas {
        &self.cas
    }

    /// The fabric (adversary control, capture).
    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
    }

    /// The shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// Node endpoints in shard order.
    pub fn node_endpoints(&self) -> Vec<EndpointId> {
        (0..self.slots.len())
            .map(|i| NODE_BASE + i as u32)
            .collect()
    }

    /// A running node.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed.
    #[allow(
        clippy::expect_used,
        reason = "documented: a crashed node has no handle"
    )]
    pub fn node(&self, idx: usize) -> &Rc<TreatyNode> {
        self.slots[idx].node.as_ref().expect("node is crashed")
    }

    /// The node's storage engine (durable clusters only).
    pub fn store(&self, idx: usize) -> Option<&TreatyStore> {
        self.slots[idx].store.as_ref()
    }

    /// The node's environment, if the node has been started with storage.
    /// Exposes the host vault and enclave for adversarial inspection in
    /// security tests (what an attacker with host-memory access sees).
    pub fn env(&self, idx: usize) -> Option<&Rc<Env>> {
        self.slots[idx].env.as_ref()
    }

    /// The cluster-wide key hierarchy (as provisioned by the CAS). Tests
    /// use this to scan untrusted memory for key-material leakage.
    pub fn keys(&self) -> &KeyHierarchy {
        &self.keys
    }

    /// What the fabric carried under the request code `code` since
    /// `start_capture`: the requests and the responses that echo it. The
    /// code is sealed, so each capture is opened with the network key.
    pub fn captured_with_code(&self, code: u8) -> Vec<Datagram> {
        let envelope = SecureEnvelope::new(protection(&self.options.profile));
        let opens_to = |dg: &Datagram| {
            let opened = envelope.open_stamped(&self.keys.network, dg.wire.as_slice());
            opened.is_ok_and(|m| m.stamp.req == code)
        };
        self.fabric
            .captured()
            .into_iter()
            .filter(opens_to)
            .collect()
    }

    /// Connects a new client (auto-assigned unique endpoint).
    pub fn client(&self) -> TreatyClient {
        let id = self.next_client.replace(self.next_client.get() + 1);
        TreatyClient::connect(
            &self.fabric,
            id,
            protection(&self.options.profile),
            self.keys.network,
            CLIENT_RPC_TIMEOUT,
        )
        .with_shard_map(self.shard_map.clone())
    }

    /// Crashes node `idx`: it stops serving and loses all volatile state.
    /// Persistent files survive.
    pub fn crash_node(&mut self, idx: usize) {
        if let Some(node) = self.slots[idx].node.take() {
            node.stop();
        }
        self.slots[idx].store = None;
    }

    /// Restarts a crashed node: storage recovery (MANIFEST → WAL → Clog),
    /// re-attestation, then serving resumes. Call
    /// [`Cluster::resolve_recovered`] afterwards to finish in-flight 2PC.
    ///
    /// # Errors
    ///
    /// Surfaces recovery failures — including detected rollback/fork
    /// attacks, which refuse to start the node.
    pub fn restart_node(&mut self, idx: usize) -> Result<()> {
        self.boot_node(idx)
    }

    /// Runs distributed recovery resolution on every running node and
    /// returns the summed [`RecoveryOutcome`]. A non-zero `failed` count
    /// means some transactions are still undecided — run another pass once
    /// the underlying fault (e.g. an unreachable counter group) clears.
    pub fn resolve_recovered(&self) -> RecoveryOutcome {
        let mut totals = RecoveryOutcome::default();
        for slot in &self.slots {
            if let Some(node) = &slot.node {
                totals += node.resolve_recovered();
            }
        }
        totals
    }

    /// Sum of committed/aborted transactions over all coordinators.
    pub fn totals(&self) -> (u64, u64) {
        let mut committed = 0;
        let mut aborted = 0;
        for slot in &self.slots {
            if let Some(node) = &slot.node {
                let s = node.stats();
                committed += s.committed;
                aborted += s.aborted;
            }
        }
        (committed, aborted)
    }

    /// Stops everything (counter replicas included). Queued phase-2
    /// decisions and background store maintenance are drained first, so
    /// a graceful shutdown leaves no participant waiting on a decision
    /// and no flush backlog behind.
    pub fn shutdown(&mut self) {
        for slot in &self.slots {
            if let Some(node) = &slot.node {
                node.drain_decisions();
            }
            if let Some(store) = &slot.store {
                let _ = store.drain_maintenance();
            }
        }
        for i in 0..self.slots.len() {
            self.crash_node(i);
        }
        for r in &self.replicas {
            r.stop();
        }
    }
}
