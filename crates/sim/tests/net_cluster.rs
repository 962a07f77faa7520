//! Multi-process cluster harness: the acceptance test for the networked
//! substrate.
//!
//! Each test spawns real `repro serve` child processes (one dhtd per
//! node, ephemeral ports), parses the `DHTD LISTENING <addr>` line each
//! daemon prints, and drives the *same* paper workload through an
//! `IndexService<RemoteDht>` that an in-process `RingDht` run sees.
//! Results must be equal — the wire is an implementation detail, not a
//! semantic one.
//!
//! Teardown is deliberate: a wire `Shutdown` frame per member, then
//! `wait()` with a hard deadline, then `kill()`. A hung daemon fails the
//! test rather than the CI job.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use p2p_index_dht::placement::replica_keys;
use p2p_index_dht::{Dht, FaultConfig, FaultyDht, Key, NodeId, RingDht};
use p2p_index_net::{RemoteDht, RemoteDhtConfig};
use p2p_index_obs::MetricsRegistry;
use p2p_index_sim::netd::{run_workload, run_workload_with_churn};

/// One spawned `repro serve` daemon and the address it bound.
struct DhtdChild {
    child: Child,
    addr: SocketAddr,
}

/// Spawns `repro serve` with the given extra flags on an ephemeral port
/// and waits for its `DHTD LISTENING <addr>` banner.
fn spawn_dhtd(node_name: &str, extra: &[&str]) -> DhtdChild {
    spawn_dhtd_on(node_name, 0, extra)
}

/// [`spawn_dhtd`] on a fixed port — replicated clusters hand every
/// member the full `NAME=HOST:PORT` list up front, so their ports must
/// be chosen before any daemon starts (and survive a restart).
fn spawn_dhtd_on(node_name: &str, port: u16, extra: &[&str]) -> DhtdChild {
    let port = port.to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--port", &port])
        .args(["--node-name", node_name])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon exited before announcing its address")
        .expect("read daemon banner");
    let addr = banner
        .strip_prefix("DHTD LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .parse()
        .expect("parse daemon address");
    // Keep draining stdout in the background so the child never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    DhtdChild { child, addr }
}

fn spawn_cluster(n: usize, extra: &[&str]) -> Vec<DhtdChild> {
    (0..n)
        .map(|i| spawn_dhtd(&format!("node-{i}"), extra))
        .collect()
}

fn members(children: &[DhtdChild]) -> Vec<SocketAddr> {
    children.iter().map(|c| c.addr).collect()
}

/// Sends each member a wire shutdown frame, then waits for every child
/// with a hard deadline; anything still alive is killed and the test
/// fails.
fn shutdown_cluster(children: Vec<DhtdChild>, addrs: &[SocketAddr]) {
    let closer = RemoteDht::connect(RemoteDht::named_members(addrs), RemoteDhtConfig::default());
    closer.shutdown_members();
    let deadline = Instant::now() + Duration::from_secs(10);
    for mut child in children {
        loop {
            match child.child.try_wait().expect("poll child") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    break;
                }
                None if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                None => {
                    child.child.kill().ok();
                    child.child.wait().ok();
                    panic!("daemon ignored shutdown frame; killed");
                }
            }
        }
    }
}

fn remote_client(addrs: &[SocketAddr]) -> RemoteDht {
    RemoteDht::connect(RemoteDht::named_members(addrs), RemoteDhtConfig::default())
}

/// The acceptance test: `IndexService<RemoteDht>` against live dhtd
/// processes produces results equal to an in-process run of the same
/// seed — files found, interactions, misses, and DHT stats alike.
#[test]
fn remote_cluster_workload_equals_in_process_run() {
    const NODES: usize = 5;
    let children = spawn_cluster(NODES, &[]);
    let addrs = members(&children);

    let remote = run_workload(remote_client(&addrs), 30, 20, 77).expect("remote workload");
    let local = run_workload(RingDht::with_named_nodes(NODES), 30, 20, 77).expect("local workload");
    assert_eq!(remote, local, "socket hop changed the workload outcome");
    assert!(remote.files_found > 0, "workload found nothing — vacuous");

    shutdown_cluster(children, &addrs);
}

/// net.* frame counters must agree with the substrate's
/// 2-messages-per-completed-op accounting: a lone op is one
/// request/response frame pair, a batch of k is one Batch/BatchReply
/// frame pair carrying k ops — two DHT messages per op either way.
#[test]
fn net_frame_counters_match_message_accounting() {
    let children = spawn_cluster(3, &[]);
    let addrs = members(&children);

    let metrics = MetricsRegistry::new();
    let mut client = remote_client(&addrs);
    client.set_metrics(metrics.clone());
    let outcome = run_workload(client, 18, 12, 5).expect("remote workload");

    let snap = metrics.snapshot();
    let frames_out = snap.counter("net.frames_out");
    let frames_in = snap.counter("net.frames_in");
    let batch_out = snap.counter("net.batch.frames_out");
    let batch_in = snap.counter("net.batch.frames_in");
    let batch_ops = snap.counter("net.batch.ops");
    assert!(frames_out > 0, "no frames sent — vacuous");
    assert!(
        batch_ops > 0,
        "the multi-get fast path never pipelined a batch"
    );
    assert_eq!(frames_out, frames_in, "every request frame got a response");
    assert_eq!(batch_out, batch_in, "every batch frame got a batch reply");
    assert_eq!(
        (frames_out - batch_out) + (frames_in - batch_in) + 2 * batch_ops,
        outcome.messages,
        "2-messages-per-op accounting drifted from wire frame counts"
    );
    assert_eq!(snap.counter("net.transport_errors"), 0);
    assert_eq!(snap.counter("net.decode_errors"), 0);

    shutdown_cluster(children, &addrs);
}

/// `execute_many` against real `dhtd` processes: results and per-op
/// stats identical to an in-process `RingDht` twin, with the wire cost
/// collapsed to one pipelined frame pair per routed member.
#[test]
fn batched_ops_against_live_daemons_match_in_process_twin() {
    const NODES: usize = 5;
    let children = spawn_cluster(NODES, &[]);
    let addrs = members(&children);

    let metrics = MetricsRegistry::new();
    let mut client = remote_client(&addrs);
    client.set_metrics(metrics.clone());
    let mut twin = RingDht::with_named_nodes(NODES);

    let mut ops = Vec::new();
    for i in 0..40usize {
        let key = p2p_index_dht::Key::hash_of(&format!("batch-key-{}", i % 13));
        ops.push(match i % 4 {
            0 | 1 => p2p_index_dht::DhtOp::Put {
                key,
                value: bytes::Bytes::from(format!("v{i}")),
            },
            2 => p2p_index_dht::DhtOp::Get(key),
            _ => p2p_index_dht::DhtOp::NodeFor(key),
        });
    }
    let remote = client.execute_many(ops.clone());
    let local = twin.execute_many(ops);
    assert_eq!(remote, local, "batched results diverged from the twin");
    assert_eq!(client.stats(), twin.stats(), "per-op accounting diverged");

    let snap = metrics.snapshot();
    assert!(
        snap.counter("net.batch.ops") > 0,
        "a 40-op batch over 5 members must have pipelined"
    );
    assert_eq!(
        snap.counter("net.batch.frames_out"),
        snap.counter("net.batch.frames_in"),
        "every batch frame got a batch reply"
    );

    shutdown_cluster(children, &addrs);
}

/// Loss over the wire: a `FaultyDht` around the client in front of real
/// daemons, so a lost op is a `DhtError::Timeout` whether or not its frame
/// reached a member. `IndexService`'s retry policy must absorb them and
/// still complete the workload.
#[test]
fn lossy_cluster_completes_under_retry() {
    let children = spawn_cluster(3, &[]);
    let addrs = members(&children);

    let dht = FaultyDht::new(remote_client(&addrs), FaultConfig::lossy(29, 0.15));
    let lossless = run_workload(RingDht::with_named_nodes(3), 18, 12, 11).expect("local");
    let outcome = run_workload(dht, 18, 12, 11).expect("lossy remote workload");
    assert_eq!(
        outcome.files_found, lossless.files_found,
        "retries should mask loss without changing results"
    );
    assert!(
        outcome.messages > lossless.messages,
        "injected loss should cost extra message pairs (retries)"
    );

    shutdown_cluster(children, &addrs);
}

/// Reserves `n` distinct loopback ports by binding ephemeral listeners,
/// then releasing them. Replicated daemons need the whole membership
/// list before the first one starts, so their ports cannot come from
/// the banner; the tiny release-to-rebind race is acceptable on a CI
/// loopback.
fn reserve_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr"))
        .collect()
}

/// Waits until `addr` can be bound again (a killed daemon's port may
/// linger briefly in kernel teardown states), then releases it for the
/// restarting daemon.
fn wait_until_bindable(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpListener::bind(addr) {
            Ok(probe) => {
                drop(probe);
                return;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("port {addr} never became bindable: {e}"),
        }
    }
}

/// The churn acceptance test (one of ROADMAP item 1(d)'s wall-clock
/// suites): a 5-daemon cluster at replication 3 loses one member to
/// SIGKILL mid-workload and the user never notices — zero failed searches, zero abandoned branches at
/// read quorum 2, answers equal to a fault-free in-process ring of the
/// same members. Afterwards the killed daemon
/// restarts empty on its old port and the survivors' anti-entropy
/// repair refills it, restoring the replication factor.
#[test]
fn sigkilled_daemon_is_masked_by_quorum_and_refilled_after_restart() {
    const NODES: usize = 5;
    const REPLICAS: usize = 3;
    const ARTICLES: usize = 30;
    const QUERIES: usize = 20;
    const SEED: u64 = 77;
    const KILL_AT: usize = QUERIES / 2;
    const VICTIM: usize = 2;

    let addrs = reserve_addrs(NODES);
    let peers = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| format!("node-{i}={addr}"))
        .collect::<Vec<_>>()
        .join(",");
    // The daemons take R alone: the client below writes each key to all
    // three of its replicas and counts W itself.
    let extra = ["--replicas", "3", "--peers", &peers, "--repair-ms", "40"];
    let mut children: Vec<DhtdChild> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let child = spawn_dhtd_on(&format!("node-{i}"), addr.port(), &extra);
            assert_eq!(child.addr, *addr, "daemon bound a different port");
            child
        })
        .collect();

    let quorum_config = RemoteDhtConfig {
        replicas: REPLICAS,
        read_quorum: 2,
        write_quorum: Some(2),
    };
    let client = || RemoteDht::connect(RemoteDht::named_members(&addrs), quorum_config.clone());

    // Sentinel keys whose replica set includes the victim: written while
    // everyone is alive, they prove the victim held copies before the
    // kill and must hold them again after restart + repair.
    let mut ring: Vec<Key> = (0..NODES)
        .map(|i| Key::hash_of(&format!("node-{i}")))
        .collect();
    ring.sort();
    let victim_key = Key::hash_of(&format!("node-{VICTIM}"));
    let sentinels: Vec<Key> = (0..200u32)
        .map(|i| Key::hash_of(&format!("sentinel-{i}")))
        .filter(|key| replica_keys(&ring, key, REPLICAS).contains(&victim_key))
        .take(4)
        .collect();
    assert!(!sentinels.is_empty(), "no sentinel landed on the victim");
    let mut writer = client();
    for key in &sentinels {
        assert!(writer.put(*key, bytes::Bytes::from_static(b"sentinel")));
    }
    let solo_victim = |addr: SocketAddr| {
        RemoteDht::connect(
            vec![(NodeId::hash_of(&format!("node-{VICTIM}")), addr)],
            RemoteDhtConfig::default(),
        )
    };
    let holds_all_sentinels = |probe: &mut RemoteDht| {
        sentinels.iter().all(|key| {
            probe
                .get(key)
                .iter()
                .any(|v| v.as_ref() == b"sentinel".as_slice())
        })
    };
    let mut probe = solo_victim(addrs[VICTIM]);
    let replicated = Instant::now() + Duration::from_secs(10);
    while !holds_all_sentinels(&mut probe) {
        assert!(
            Instant::now() < replicated,
            "victim never received its sentinel replicas"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The workload, with the victim SIGKILLed right before query 10.
    // Zero failed searches is `Ok`; the twin is an unchurned in-process
    // ring, so a replicated cluster that loses a member must answer
    // exactly as if nothing had happened: nothing degrades.
    let victim_child = &mut children[VICTIM].child;
    let remote = run_workload_with_churn(client(), ARTICLES, QUERIES, SEED, KILL_AT, |_service| {
        victim_child.kill().expect("SIGKILL victim daemon");
        victim_child.wait().expect("reap victim daemon");
    })
    .expect("a quorum-2 workload must survive one killed member");
    let twin = RingDht::with_named_nodes(NODES);
    let local = run_workload_with_churn(twin, ARTICLES, QUERIES, SEED, KILL_AT, |_| {})
        .expect("in-process fault-free twin");
    assert_eq!(remote, local, "churned cluster diverged from its twin");
    assert!(remote.files_found > 0, "workload found nothing — vacuous");
    assert_eq!(remote.abandoned, 0, "replication must mask the crash");

    // Restart the victim empty on its old port; the survivors' repair
    // pass must push its replica copies back.
    wait_until_bindable(addrs[VICTIM]);
    let restarted = spawn_dhtd_on(&format!("node-{VICTIM}"), addrs[VICTIM].port(), &extra);
    assert_eq!(restarted.addr, addrs[VICTIM], "victim moved ports");
    children[VICTIM] = restarted;
    let mut probe = solo_victim(addrs[VICTIM]);
    let repaired = Instant::now() + Duration::from_secs(20);
    while !holds_all_sentinels(&mut probe) {
        assert!(
            Instant::now() < repaired,
            "repair never restored the victim's replicas"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    shutdown_cluster(children, &addrs);
}

/// A plain `Dht` smoke test over one daemon: put/get/remove round-trip
/// with values intact.
#[test]
fn single_daemon_round_trip() {
    let children = spawn_cluster(1, &[]);
    let addrs = members(&children);

    let mut dht = remote_client(&addrs);
    let key = p2p_index_dht::Key::hash_of("net-harness-key");
    assert!(dht.put(key, bytes::Bytes::from_static(b"alpha")));
    assert!(dht.put(key, bytes::Bytes::from_static(b"beta")));
    let mut got: Vec<_> = dht
        .get(&key)
        .into_iter()
        .map(|b| String::from_utf8_lossy(&b).into_owned())
        .collect();
    got.sort();
    assert_eq!(got, ["alpha", "beta"]);
    assert!(dht.remove(&key, b"alpha"));
    assert!(dht.remove(&key, b"beta"));
    assert!(dht.get(&key).is_empty());

    shutdown_cluster(children, &addrs);
}
