//! Service-level guarantees of `sp2 serve`, exercised over real TCP:
//!
//! 1. **Determinism under multiplexing** — two identical submissions
//!    sent concurrently, with an unrelated campaign in flight on the
//!    same daemon, stream bit-identical dataset lines, and those bytes
//!    equal what the one-shot path (`sp2 submit --local`, i.e.
//!    [`serve::run_local`]) prints for the same submission.
//! 2. **Cancellation consistency** — cancelling a campaign mid-run
//!    settles the job as `cancelled` and leaves nothing in the store;
//!    the daemon keeps serving.
//! 3. **Digest-hit replay** — a completed digest is served from the
//!    store (`stored:true`) byte-for-byte, without re-running.
//!
//! The tests share one process and run concurrently: each daemon keeps
//! its engine configuration to its own campaigns, and each test has its
//! own store directory.

use sp2_repro::cluster::{EngineConfig, EngineKind};
use sp2_repro::core::serve::{self, Client, ServeConfig, Server, ServerHandle, Store};
use sp2_repro::core::{Json, Submission};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp2-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(tag: &str, campaigns: usize, engine: EngineConfig) -> ServerHandle {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: temp_dir(tag),
        campaigns,
        engine,
    })
    .expect("server spawns")
}

/// A short but real campaign: `table2` runs the cluster simulation.
fn campaign_submission(days: u32, seed: u64) -> Submission {
    Submission::builder()
        .days(days)
        .seed(seed)
        .experiment("table2")
        .build()
        .expect("valid submission")
}

#[test]
fn concurrent_duplicates_match_each_other_and_the_one_shot_path() {
    let server = spawn_server("duplicates", 2, EngineConfig::default());
    let addr = server.addr();

    // Unrelated traffic on the same daemon: a different-seed campaign
    // is in flight while the duplicates run.
    let decoy = campaign_submission(2, 7_777);
    let mut decoy_client = Client::connect(addr).expect("connects");
    decoy_client
        .request(
            &Json::obj()
                .field("op", "submit")
                .field("submission", decoy.to_json())
                .field("wait", false),
        )
        .expect("decoy accepted");

    // Two identical submissions, submitted concurrently.
    let sub = campaign_submission(2, 1_996);
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let sub = sub.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                client.submit_and_wait(&sub).expect("streams to completion")
            })
        })
        .collect();
    let outcomes: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("submitter thread"))
        .collect();

    for outcome in &outcomes {
        assert!(outcome.is_done(), "terminal: {:?}", outcome.terminal);
        assert!(!outcome.dataset_lines.is_empty());
    }
    assert_eq!(
        outcomes[0].dataset_lines, outcomes[1].dataset_lines,
        "concurrent identical submissions must stream identical bytes"
    );
    // At least one of the two rode the other's run (single-flight) or
    // the store — both are dedup paths; what matters is the bytes.
    let local = serve::run_local(&sub, EngineConfig::default()).expect("one-shot path runs");
    assert_eq!(
        outcomes[0].dataset_lines, local,
        "service bytes must equal the one-shot (`sp2 submit --local`) bytes"
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn cancellation_mid_campaign_leaves_the_store_consistent() {
    // Reference engine with fast-forward off: the campaign steps every
    // interval of every node, slow enough that a cancel lands mid-run.
    let store_dir = temp_dir("cancel");
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: store_dir.clone(),
        campaigns: 1,
        engine: EngineConfig::default()
            .engine(EngineKind::Reference)
            .fast_forward(false),
    })
    .expect("server spawns");
    let mut client = Client::connect(server.addr()).expect("connects");

    let sub = campaign_submission(3_650, 42);
    let header = client
        .request(
            &Json::obj()
                .field("op", "submit")
                .field("submission", sub.to_json())
                .field("wait", false),
        )
        .expect("accepted");
    let digest = header
        .get("job")
        .and_then(Json::as_str)
        .expect("header names the job")
        .to_string();

    // Wait until the worker has actually picked the job up.
    let status_of = |client: &mut Client| {
        client
            .request(
                &Json::obj()
                    .field("op", "status")
                    .field("job", digest.as_str()),
            )
            .expect("status")
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    while status_of(&mut client) != "running" {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let cancelled = client
        .request(
            &Json::obj()
                .field("op", "cancel")
                .field("job", digest.as_str()),
        )
        .expect("cancel accepted");
    assert_eq!(cancelled.get("ok"), Some(&Json::Bool(true)));

    // The job settles as cancelled (never done/failed)…
    loop {
        let state = status_of(&mut client);
        if state != "running" {
            assert_eq!(state, "cancelled");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // …nothing of it is visible in the store…
    let store = Store::open(&store_dir).expect("store opens");
    assert!(
        !store.contains(&digest) && store.scan().is_empty(),
        "a cancelled job must leave no store entry"
    );
    // …and the daemon is still healthy.
    let pong = client
        .request(&Json::obj().field("op", "ping"))
        .expect("still serving");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

    server.shutdown().expect("clean shutdown");
}

#[test]
fn digest_hit_replays_without_rerunning() {
    let dir = temp_dir("replay");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.clone(),
        campaigns: 1,
        engine: EngineConfig::default(),
    };
    let sub = campaign_submission(2, 1_998);

    let first = Server::spawn(config.clone()).expect("first instance");
    let mut client = Client::connect(first.addr()).expect("connects");
    let ran = client.submit_and_wait(&sub).expect("runs");
    assert!(ran.is_done());
    assert_eq!(ran.header.get("stored"), Some(&Json::Bool(false)));
    first.shutdown().expect("clean shutdown");

    // A fresh daemon over the same store must serve the digest from
    // disk: `stored:true` in the header is the server's own assertion
    // that no campaign ran, and a replay of a 2-day campaign returns
    // immediately where the original run did real work.
    let second = Server::spawn(config).expect("second instance");
    let mut client = Client::connect(second.addr()).expect("connects");
    let replayed = client.submit_and_wait(&sub).expect("replays");
    assert!(replayed.is_done());
    assert_eq!(
        replayed.header.get("stored"),
        Some(&Json::Bool(true)),
        "second run must be served from the store"
    );
    assert_eq!(
        replayed.dataset_lines, ran.dataset_lines,
        "replayed bytes are the stored bytes"
    );
    second.shutdown().expect("clean shutdown");

    let _ = std::fs::remove_dir_all(&dir);
}
