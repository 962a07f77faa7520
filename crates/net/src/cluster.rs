//! In-process loopback clusters for tests and benches.
//!
//! [`LoopbackCluster`] spins up N [`DhtServer`]s in the current process —
//! one per node, each serving its own partition store, all bound to
//! ephemeral loopback ports — and hands out [`RemoteDht`] clients over
//! them. [`ClusterDht`] bundles one client with the servers it talks to
//! behind the [`Dht`] trait, shutting the whole cluster down on drop;
//! that is what lets the shared conformance suite treat "a TCP cluster"
//! as just another substrate.
//!
//! The *multi-process* variant (separate `dhtd` processes via `repro
//! serve`) lives in the sim crate's integration harness; this module is
//! the single-process fast path.

use std::io;
use std::net::{SocketAddr, TcpListener};

use bytes::Bytes;
use p2p_index_dht::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, FaultConfig, Key, NodeId};
use p2p_index_obs::MetricsRegistry;

use crate::client::{RemoteDht, RemoteDhtConfig};
use crate::server::{DhtServer, ReplicationConfig, ServerConfig};

/// A set of in-process `dhtd` servers, one per node, on loopback.
pub struct LoopbackCluster {
    servers: Vec<DhtServer>,
    members: Vec<(NodeId, SocketAddr)>,
}

impl LoopbackCluster {
    /// Starts `n` servers named `node-0..n-1`, each serving its own
    /// partition of a ring — collectively equivalent to
    /// `RingDht::with_named_nodes(n)` when fronted by a [`RemoteDht`].
    pub fn start_ring(n: usize) -> io::Result<LoopbackCluster> {
        Self::start_with(n, |_, _, _| ServerConfig::default())
    }

    /// Starts `n` servers that each inject message loss in front of their
    /// store, so remote callers observe injected [`DhtError`]s over the
    /// wire. Each node gets a distinct deterministic seed derived from
    /// `seed` so runs are reproducible.
    pub fn start_lossy_ring(n: usize, seed: u64, loss: f64) -> io::Result<LoopbackCluster> {
        Self::start_with(n, |_, id, _| ServerConfig {
            fault: FaultConfig::lossy(seed ^ id.key().low_u64(), loss),
            ..ServerConfig::default()
        })
    }

    /// Starts `n` servers named `node-0..n-1` forming one replicated
    /// cluster: every key lives on `replicas` clockwise successors and
    /// writes need `write_quorum` acks.
    pub fn start_replicated_ring(
        n: usize,
        replicas: usize,
        write_quorum: usize,
    ) -> io::Result<LoopbackCluster> {
        Self::start_with(n, |_, id, ring| ServerConfig {
            replication: Some(ReplicationConfig::new(
                *id.key(),
                ring.to_vec(),
                replicas,
                write_quorum,
            )),
            ..ServerConfig::default()
        })
    }

    /// Starts `n` servers named `node-0..n-1`, each configured by
    /// `config_for(its index, its id, the whole ring)` — the constructor
    /// the others are written in, for a cluster they do not cover (a
    /// metrics registry, a repair interval). All
    /// listeners are bound *before* any server spawns, so replicated
    /// members can dial every other member from their very first frame —
    /// no bootstrap races.
    pub fn start_with(
        n: usize,
        config_for: impl Fn(usize, NodeId, &[(Key, SocketAddr)]) -> ServerConfig,
    ) -> io::Result<LoopbackCluster> {
        let mut listeners = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let id = NodeId::hash_of(&format!("node-{i}"));
            let listener = TcpListener::bind("127.0.0.1:0")?;
            members.push((id, listener.local_addr()?));
            listeners.push(listener);
        }
        let ring: Vec<(Key, SocketAddr)> = members
            .iter()
            .map(|(id, addr)| (*id.key(), *addr))
            .collect();
        let servers = listeners
            .into_iter()
            .zip(&members)
            .enumerate()
            .map(|(index, (listener, (id, _)))| {
                DhtServer::spawn_partition_on(listener, *id, config_for(index, *id, &ring))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(LoopbackCluster { servers, members })
    }

    /// The `(node id, address)` member list, in start order.
    pub fn members(&self) -> &[(NodeId, SocketAddr)] {
        &self.members
    }

    /// A fresh client over every member.
    pub fn client(&self) -> RemoteDht {
        self.client_with(RemoteDhtConfig::default())
    }

    /// A fresh client with explicit transport configuration.
    pub fn client_with(&self, config: RemoteDhtConfig) -> RemoteDht {
        RemoteDht::connect(self.members.clone(), config)
    }

    /// A fresh replica-aware client: routes over `replicas` candidate
    /// members per key and reads at quorum `read_quorum`.
    pub fn replicated_client(&self, replicas: usize, read_quorum: usize) -> RemoteDht {
        self.client_with(RemoteDhtConfig {
            replicas,
            read_quorum,
            ..RemoteDhtConfig::default()
        })
    }

    /// Total operations answered across all servers.
    pub fn ops_served(&self) -> u64 {
        self.servers.iter().map(DhtServer::ops_served).sum()
    }

    /// Direct access to one member's server handle — lets tests wipe a
    /// store in place (a stale replica) or force a repair pass.
    pub fn server(&self, index: usize) -> &DhtServer {
        &self.servers[index]
    }

    /// Mutable access to one member's server handle — lets tests crash a
    /// member in place with [`DhtServer::halt`].
    pub fn server_mut(&mut self, index: usize) -> &mut DhtServer {
        &mut self.servers[index]
    }

    /// Runs one synchronous anti-entropy pass on every member.
    pub fn repair_all(&self) {
        for server in &self.servers {
            server.repair_now();
        }
    }

    /// Shuts every server down, joining their threads.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }

    /// Blocks until every member has stopped on its own — a wire shutdown
    /// frame each ([`DhtServer::wait`] per member).
    pub fn wait(self) {
        for server in self.servers {
            server.wait();
        }
    }
}

/// A [`RemoteDht`] bundled with the [`LoopbackCluster`] it talks to,
/// presented as one [`Dht`] value. Dropping it tears the cluster down,
/// which is what lets generic test code (the conformance suite) own a
/// TCP-backed substrate the same way it owns an in-process one.
pub struct ClusterDht {
    client: RemoteDht,
    /// Kept alive for the client's lifetime; drop order (client first,
    /// servers after) means in-flight requests drain before teardown.
    cluster: Option<LoopbackCluster>,
}

impl ClusterDht {
    /// A client configured by `config` over `cluster`, which it owns from
    /// here on.
    pub fn new(cluster: LoopbackCluster, config: RemoteDhtConfig) -> ClusterDht {
        ClusterDht {
            client: cluster.client_with(config),
            cluster: Some(cluster),
        }
    }

    /// The underlying cluster (kill, wipe, or repair individual members).
    pub fn cluster(&self) -> &LoopbackCluster {
        self.cluster.as_ref().expect("cluster alive until drop")
    }
}

impl Dht for ClusterDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.client.execute(op)
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        self.client.execute_many(ops)
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.client.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.client.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.client.get(key)
    }

    fn stats(&self) -> DhtStats {
        self.client.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.client.set_metrics(metrics);
    }

    fn len(&self) -> usize {
        self.client.len()
    }
}

impl Drop for ClusterDht {
    fn drop(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_dht::RingDht;

    #[test]
    fn cluster_matches_in_process_ring() {
        let cluster = LoopbackCluster::start_ring(5).expect("loopback cluster");
        let mut cluster = ClusterDht::new(cluster, RemoteDhtConfig::default());
        let mut ring = RingDht::with_named_nodes(5);
        assert_eq!(cluster.nodes(), ring.nodes());
        for i in 0..30 {
            let key = Key::hash_of(&format!("k{i}"));
            let value = Bytes::from(format!("v{i}"));
            assert_eq!(cluster.put(key, value.clone()), ring.put(key, value));
            assert_eq!(Dht::get(&cluster, &key), Dht::get(&ring, &key));
        }
        assert_eq!(cluster.stats(), ring.stats());
    }

    #[test]
    fn replicated_cluster_matches_unreplicated_twin_results_and_stats() {
        // Replication must be invisible to correct clients: same results
        // and the same per-op accounting as the plain ring convention.
        let cluster = LoopbackCluster::start_replicated_ring(5, 3, 2).expect("cluster");
        let config = RemoteDhtConfig {
            replicas: 3,
            read_quorum: 2,
            ..RemoteDhtConfig::default()
        };
        let mut cluster = ClusterDht::new(cluster, config);
        let mut ring = RingDht::with_named_nodes(5);
        for i in 0..30 {
            let key = Key::hash_of(&format!("k{i}"));
            let value = Bytes::from(format!("v{i}"));
            assert_eq!(cluster.put(key, value.clone()), ring.put(key, value));
        }
        for i in 0..30 {
            let key = Key::hash_of(&format!("k{i}"));
            assert_eq!(Dht::get(&cluster, &key), Dht::get(&ring, &key), "k{i}");
        }
        assert_eq!(cluster.stats(), ring.stats());
    }

    #[test]
    fn replicated_cluster_survives_a_crashed_member() {
        let cluster = LoopbackCluster::start_replicated_ring(5, 3, 2).expect("cluster");
        let mut client = cluster.replicated_client(3, 2);
        for i in 0..30 {
            let key = Key::hash_of(&format!("churn-{i}"));
            assert!(client.put(key, Bytes::from(format!("v{i}"))));
        }
        let mut cluster = cluster;
        cluster.server_mut(2).halt();
        // Every key stays readable at quorum 2: a dead replica costs one
        // failover round, never a miss or an error.
        for i in 0..30 {
            let key = Key::hash_of(&format!("churn-{i}"));
            let values = Dht::get(&client, &key);
            assert_eq!(values, vec![Bytes::from(format!("v{i}"))], "churn-{i}");
        }
        // Writes keep succeeding too: a primary-dead key fails over to a
        // surviving replica, whose fan-out still reaches quorum 2.
        for i in 0..10 {
            let key = Key::hash_of(&format!("post-crash-{i}"));
            assert!(client.put(key, Bytes::from_static(b"pv")));
            assert_eq!(Dht::get(&client, &key), vec![Bytes::from_static(b"pv")]);
        }
        cluster.shutdown();
    }

    #[test]
    fn stale_replica_is_masked_by_quorum_and_refilled_by_repair() {
        let cluster = LoopbackCluster::start_replicated_ring(3, 3, 2).expect("cluster");
        let mut client = cluster.replicated_client(3, 2);
        for i in 0..20 {
            let key = Key::hash_of(&format!("stale-{i}"));
            assert!(client.put(key, Bytes::from(format!("v{i}"))));
        }
        // Wipe member 1 in place: it keeps serving, but from an empty
        // store — a stale replica.
        cluster.server(1).replace_entries(Vec::new());
        let solo = RemoteDht::connect(vec![cluster.members()[1]], RemoteDhtConfig::default());
        assert!(
            Dht::get(&solo, &Key::hash_of("stale-0")).is_empty(),
            "the wiped member must actually be empty"
        );
        // Quorum-2 reads mask the stale member: with R = 3 some healthy
        // replica is always in the quorum, and the lowest-ranked
        // non-empty reply wins.
        for i in 0..20 {
            let key = Key::hash_of(&format!("stale-{i}"));
            assert_eq!(
                Dht::get(&client, &key),
                vec![Bytes::from(format!("v{i}"))],
                "stale-{i}"
            );
        }
        // One anti-entropy pass from the healthy members refills it.
        cluster.repair_all();
        assert_eq!(
            Dht::get(&solo, &Key::hash_of("stale-0")),
            vec![Bytes::from_static(b"v0")],
            "repair must restore the wiped member's replica"
        );
        cluster.shutdown();
    }

    #[test]
    fn tombstones_block_a_stale_peers_repair_push() {
        use crate::wire::{read_message_with, write_message_with, Message};
        use std::net::TcpStream;
        use std::time::Duration;

        let cluster = LoopbackCluster::start_replicated_ring(3, 3, 2).expect("cluster");
        let mut client = cluster.replicated_client(3, 2);
        let key = Key::hash_of("deleted-mapping");
        let value = Bytes::from_static(b"Q:/dead");
        assert!(client.put(key, value.clone()));
        assert!(client.remove(&key, &value));
        assert!(Dht::get(&client, &key).is_empty());

        // A stale peer — restored from an image taken before the delete,
        // so with no tombstone knowledge — pushes the deleted value as an
        // add-only repair Transfer to a healthy member.
        let push = |entries: Vec<(Key, Vec<Bytes>)>| {
            let mut stream = TcpStream::connect(cluster.members()[0].1).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut scratch = Vec::new();
            let transfer = Message::Transfer { id: 9, entries };
            write_message_with(&mut stream, &transfer, &mut scratch).unwrap();
            let (reply, _) = read_message_with(&mut stream, &mut scratch).unwrap();
            assert!(matches!(reply, Message::Response { .. }));
        };
        push(vec![(key, vec![value.clone()])]);

        // The member's tombstone blocks the resurrection...
        let solo = RemoteDht::connect(vec![cluster.members()[0]], RemoteDhtConfig::default());
        assert!(
            Dht::get(&solo, &key).is_empty(),
            "a deleted mapping must not be resurrected by repair"
        );
        // ...while an undeleted value pushed the same way is accepted.
        let alive = Bytes::from_static(b"Q:/alive");
        push(vec![(key, vec![alive.clone()])]);
        assert_eq!(Dht::get(&solo, &key), vec![alive.clone()]);

        // Re-add wins: a fresh Put of the deleted pair clears the marker,
        // and the member that had tombstoned it stores it again. (Read
        // that member directly: `alive` lives only there until repair
        // spreads it, and a quorum of 2 may not include it.)
        assert!(client.put(key, value.clone()));
        let mut values = Dht::get(&solo, &key);
        values.sort();
        assert_eq!(values, vec![alive, value]);
        cluster.shutdown();
    }

    #[test]
    fn repair_scrubs_a_stale_member_still_holding_a_deleted_value() {
        let cluster = LoopbackCluster::start_replicated_ring(3, 3, 2).expect("cluster");
        let mut client = cluster.replicated_client(3, 2);
        let key = Key::hash_of("scrubbed-mapping");
        let value = Bytes::from_static(b"Q:/stale");
        assert!(client.put(key, value.clone()));
        assert!(client.remove(&key, &value));

        // "Restore" member 1 from a backup taken before the delete: its
        // store holds the deleted value again.
        cluster
            .server(1)
            .replace_entries(vec![(key, vec![value.clone()])]);
        let solo = RemoteDht::connect(vec![cluster.members()[1]], RemoteDhtConfig::default());
        assert_eq!(
            Dht::get(&solo, &key),
            vec![value.clone()],
            "the restored member must actually be stale"
        );

        // The healthy members' repair pass re-sends the tombstoned remove
        // to the replica set, scrubbing the stale copy.
        cluster.repair_all();
        assert!(
            Dht::get(&solo, &key).is_empty(),
            "repair must scrub the stale member's deleted value"
        );
        assert!(
            Dht::get(&client, &key).is_empty(),
            "quorum reads must never union the resurrected value back in"
        );
        cluster.shutdown();
    }

    #[test]
    fn lossy_cluster_surfaces_remote_faults_as_typed_errors() {
        let cluster = LoopbackCluster::start_lossy_ring(3, 42, 1.0).expect("loopback cluster");
        let mut cluster = ClusterDht::new(cluster, RemoteDhtConfig::default());
        // Loss probability 1.0: every storage op must fail with a *remote*
        // DhtError carried over the wire (not a transport failure).
        let err = cluster
            .execute(DhtOp::Put {
                key: Key::hash_of("k"),
                value: Bytes::from_static(b"v"),
            })
            .expect_err("fault injector drops everything");
        assert_eq!(err, DhtError::Timeout);
    }
}
