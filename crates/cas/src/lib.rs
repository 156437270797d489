//! The Configuration and Attestation Service (CAS) and the per-node Local
//! Attestation Service (LAS) — Treaty's distributed trust bootstrap (§VI).
//!
//! SGX remote attestation is built for attesting a *single* enclave to a
//! *remote* verifier through the Intel Attestation Service (IAS), which is
//! slow (a WAN round trip) and offers no collective trust for a cluster.
//! Treaty instead:
//!
//! 1. the service provider verifies one CAS enclave over IAS,
//! 2. the CAS verifies one LAS per machine over IAS,
//! 3. each LAS replaces the Quoting Enclave: it signs quotes for every
//!    Treaty instance on its machine *locally*,
//! 4. the CAS verifies those quotes and provisions the verified instance
//!    with the cluster configuration and key hierarchy.
//!
//! After bootstrap, node restarts re-attest via their LAS + CAS only — no
//! IAS round trip — which is what makes recovery fast. The test suite
//! counts IAS calls to pin down exactly that property.
//!
//! The attestation chain here runs as direct calls rather than fabric RPCs:
//! it is a *setup-time* protocol (the data path never touches it), and the
//! quotes/verification are real [`treaty_tee`] operations either way.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use treaty_crypto::{Key, KeyHierarchy};
use treaty_tee::{HardwareRoot, Measurement, Quote};

/// Errors from the attestation chain.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum CasError {
    /// A quote failed verification or attested an unexpected measurement.
    #[error("attestation failed: {0}")]
    Attestation(String),
    /// The client credentials were not recognised.
    #[error("client authentication failed")]
    ClientAuth,
    /// The CAS is unavailable (it is a single point of failure for
    /// recovery, as §VI concedes).
    #[error("CAS unavailable")]
    Unavailable,
}

/// Static cluster configuration the CAS distributes to verified nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Fabric endpoint of every Treaty node, in shard order.
    pub node_endpoints: Vec<u32>,
    /// Fabric endpoints of the trusted counter protection group.
    pub counter_replicas: Vec<u32>,
    /// Seed for the shard map hash.
    pub shard_seed: u64,
}

/// Credentials a verified node receives.
#[derive(Debug, Clone)]
pub struct NodeCredentials {
    /// The full key hierarchy.
    pub keys: KeyHierarchy,
    /// The cluster configuration.
    pub config: ClusterConfig,
}

/// Credentials an authenticated client receives (network key only — the
/// storage keys never leave the server enclaves).
#[derive(Debug, Clone)]
pub struct ClientCredentials {
    /// Key protecting client↔node messages.
    pub network_key: Key,
}

/// The simulated Intel Attestation Service: verifies quotes against the
/// hardware root and counts how often it is consulted.
#[derive(Debug)]
pub struct Ias {
    hw: HardwareRoot,
    calls: AtomicU64,
}

impl Ias {
    /// Creates the IAS for a given hardware root.
    pub fn new(hw: HardwareRoot) -> Arc<Self> {
        Arc::new(Ias {
            hw,
            calls: AtomicU64::new(0),
        })
    }

    /// Verifies a quote (one slow WAN round in production).
    ///
    /// # Errors
    ///
    /// Returns [`CasError::Attestation`] on verification failure.
    pub fn verify(&self, quote: &Quote, expected: &Measurement) -> Result<(), CasError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.hw
            .verify_quote(quote, expected)
            .map_err(|e| CasError::Attestation(e.to_string()))
    }

    /// How many times the IAS has been consulted.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// The per-machine Local Attestation Service: replaces the Quoting Enclave,
/// collecting and signing quotes for all Treaty instances on its machine.
#[derive(Debug)]
pub struct Las {
    machine: String,
    hw: HardwareRoot,
    measurement: Measurement,
}

/// Code identity of the LAS enclave.
pub fn las_measurement() -> Measurement {
    Measurement::of_code("treaty-las-v1")
}

/// Code identity of a Treaty node enclave.
pub fn node_measurement() -> Measurement {
    Measurement::of_code("treaty-node-v1")
}

impl Las {
    fn new(machine: impl Into<String>, hw: HardwareRoot) -> Self {
        Las {
            machine: machine.into(),
            hw,
            measurement: las_measurement(),
        }
    }

    /// The machine this LAS serves.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Issues a quote for a local Treaty instance. In production this is a
    /// local (fast) operation — no IAS involved.
    pub fn quote_instance(&self, instance: &Measurement, report_data: Vec<u8>) -> Quote {
        self.hw.issue_quote(*instance, report_data)
    }

    fn self_quote(&self) -> Quote {
        self.hw
            .issue_quote(self.measurement, self.machine.as_bytes().to_vec())
    }
}

struct CasState {
    nodes: HashMap<u32, Measurement>,
    clients: HashMap<u64, Key>,
}

/// The Configuration and Attestation Service.
pub struct Cas {
    ias: Arc<Ias>,
    hw: HardwareRoot,
    master: Key,
    config: ClusterConfig,
    state: Mutex<CasState>,
}

impl std::fmt::Debug for Cas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cas")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Cas {
    /// Bootstraps the CAS: the service provider verifies it over IAS once,
    /// then it becomes the cluster's root of configuration and keys.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::Attestation`] if the CAS enclave's own quote does
    /// not verify.
    pub fn bootstrap(
        ias: &Arc<Ias>,
        hw: HardwareRoot,
        master: Key,
        config: ClusterConfig,
    ) -> Result<Arc<Self>, CasError> {
        let cas_measurement = Measurement::of_code("treaty-cas-v1");
        let quote = hw.issue_quote(cas_measurement, b"cas-bootstrap".to_vec());
        ias.verify(&quote, &cas_measurement)?;
        Ok(Arc::new(Cas {
            ias: Arc::clone(ias),
            hw,
            master,
            config,
            state: Mutex::new(CasState {
                nodes: HashMap::new(),
                clients: HashMap::new(),
            }),
        }))
    }

    /// Deploys a LAS on `machine`, verifying it over IAS (once per machine,
    /// at deployment time).
    ///
    /// # Errors
    ///
    /// Returns [`CasError::Attestation`] if the LAS quote does not verify.
    pub fn deploy_las(&self, machine: &str) -> Result<Las, CasError> {
        let las = Las::new(machine, self.hw.clone());
        self.ias.verify(&las.self_quote(), &las_measurement())?;
        Ok(las)
    }

    /// Registers a Treaty node instance: the LAS-signed quote is verified
    /// *locally* (no IAS), then the node receives keys and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::Attestation`] if the quote is invalid or attests
    /// the wrong code.
    pub fn register_node(&self, endpoint: u32, quote: &Quote) -> Result<NodeCredentials, CasError> {
        self.hw
            .verify_quote(quote, &node_measurement())
            .map_err(|e| CasError::Attestation(e.to_string()))?;
        self.state.lock().nodes.insert(endpoint, quote.measurement);
        Ok(NodeCredentials {
            keys: KeyHierarchy::from_master(&self.master),
            config: self.config.clone(),
        })
    }

    /// Registers a client by id, returning its shared-secret credentials.
    /// (Clients authenticate with the CAS out of band — e.g. cloud IAM —
    /// which the paper leaves abstract.)
    pub fn register_client(&self, client_id: u64) -> ClientCredentials {
        let network_key = KeyHierarchy::from_master(&self.master).network;
        self.state.lock().clients.insert(client_id, network_key);
        ClientCredentials { network_key }
    }

    /// Verifies that a client was registered.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::ClientAuth`] for unknown clients.
    pub fn authenticate_client(&self, client_id: u64) -> Result<(), CasError> {
        if self.state.lock().clients.contains_key(&client_id) {
            Ok(())
        } else {
            Err(CasError::ClientAuth)
        }
    }

    /// Number of nodes currently registered.
    pub fn registered_nodes(&self) -> usize {
        self.state.lock().nodes.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

/// Runs the full trust-bootstrap for a test/bench cluster and returns the
/// pieces: IAS, CAS, one LAS per machine.
///
/// # Panics
///
/// Panics if bootstrap fails (impossible with an honest hardware root).
#[allow(
    clippy::expect_used,
    reason = "a cluster that cannot attest must not boot; tests and benches call this"
)]
pub fn bootstrap_cluster(
    master: Key,
    config: ClusterConfig,
    machines: &[&str],
) -> (Arc<Ias>, Arc<Cas>, Vec<Las>) {
    let hw = HardwareRoot::new(master.derive("hw-root-secret"));
    let ias = Ias::new(hw.clone());
    let cas = Cas::bootstrap(&ias, hw, master, config).expect("CAS bootstrap");
    let lases = machines
        .iter()
        .map(|m| cas.deploy_las(m).expect("LAS deploy"))
        .collect();
    (ias, cas, lases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig {
            node_endpoints: vec![1, 2, 3],
            counter_replicas: vec![1000, 1001, 1002],
            shard_seed: 7,
        }
    }

    #[test]
    fn full_chain_provisions_node() {
        let (_ias, cas, lases) = bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1"]);
        let quote = lases[0].quote_instance(&node_measurement(), b"node-1".to_vec());
        let creds = cas.register_node(1, &quote).unwrap();
        assert_eq!(creds.config, config());
        assert_eq!(cas.registered_nodes(), 1);
    }

    #[test]
    fn wrong_code_is_rejected() {
        let (_ias, cas, lases) = bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1"]);
        let evil = Measurement::of_code("treaty-node-v1-with-backdoor");
        let quote = lases[0].quote_instance(&evil, vec![]);
        assert!(matches!(
            cas.register_node(1, &quote),
            Err(CasError::Attestation(_))
        ));
        assert_eq!(cas.registered_nodes(), 0);
    }

    #[test]
    fn forged_quote_is_rejected() {
        let (_ias, cas, _lases) = bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1"]);
        // A quote signed by a different (attacker-controlled) root.
        let rogue = HardwareRoot::new(Key::from_bytes([99; 32]));
        let quote = rogue.issue_quote(node_measurement(), vec![]);
        assert!(matches!(
            cas.register_node(1, &quote),
            Err(CasError::Attestation(_))
        ));
    }

    #[test]
    fn node_reattestation_skips_ias() {
        let (ias, cas, lases) = bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1"]);
        let after_bootstrap = ias.call_count(); // CAS + 1 LAS
        assert_eq!(after_bootstrap, 2);
        // A node restarting re-attests via LAS + CAS only.
        for restart in 0..5 {
            let quote =
                lases[0].quote_instance(&node_measurement(), format!("r{restart}").into_bytes());
            cas.register_node(1, &quote).unwrap();
        }
        assert_eq!(
            ias.call_count(),
            after_bootstrap,
            "recovery must not call IAS"
        );
    }

    #[test]
    fn client_registration_and_auth() {
        let (_ias, cas, _) = bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1"]);
        let creds = cas.register_client(7);
        cas.authenticate_client(7).unwrap();
        assert_eq!(cas.authenticate_client(8), Err(CasError::ClientAuth));
        // Client gets exactly the network key, nothing else.
        let keys = KeyHierarchy::from_master(&Key::from_bytes([1; 32]));
        assert_eq!(creds.network_key, keys.network);
    }

    #[test]
    fn same_master_yields_same_keys_across_nodes() {
        let (_ias, cas, lases) =
            bootstrap_cluster(Key::from_bytes([1; 32]), config(), &["m1", "m2"]);
        let q1 = lases[0].quote_instance(&node_measurement(), b"n1".to_vec());
        let q2 = lases[1].quote_instance(&node_measurement(), b"n2".to_vec());
        let c1 = cas.register_node(1, &q1).unwrap();
        let c2 = cas.register_node(2, &q2).unwrap();
        assert_eq!(c1.keys.network, c2.keys.network);
        assert_eq!(c1.keys.storage, c2.keys.storage);
    }
}
