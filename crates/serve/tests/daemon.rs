//! Integration tests for the resident daemon: live TCP connections against
//! in-process [`Daemon`] instances on ephemeral ports.

use std::time::Duration;

use lakeroad::MapConfig;
use lr_serve::{Daemon, DaemonClient, DaemonConfig, Json};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        map: MapConfig::single_solver().with_timeout(Duration::from_secs(30)),
        ..DaemonConfig::default()
    }
}

fn map_request(id: u64) -> String {
    format!(
        "{{\"kind\":\"map\",\"id\":{id},\"arch\":\"intel\",\"template\":\"dsp\",\
         \"bench\":\"mul_w8_s0\"}}"
    )
}

fn kind(doc: &Json) -> &str {
    doc.get(&["kind"]).and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn malformed_frames_earn_errors_without_killing_the_connection() {
    let daemon = Daemon::bind(quick_config()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let doc = client.request("{\"kind\":\"ping\",\"id\":\"a\"}").unwrap();
    assert_eq!(kind(&doc), "pong");
    assert_eq!(doc.get(&["id"]).and_then(Json::as_str), Some("a"));

    // Broken JSON, a missing kind, an unknown kind, and two bad map requests
    // (an unknown architecture; a part-select past its operand's width) all
    // come back as error responses on the SAME connection...
    for bad in [
        "this is not json",
        "{\"id\":1}",
        "{\"kind\":\"frobnicate\"}",
        "{\"kind\":\"map\",\"arch\":\"pdp11\",\"bench\":\"mul_w8_s0\"}",
        "{\"kind\":\"map\",\"arch\":\"intel\",\"template\":\"bitwise\",\"verilog\":\"module m(input [7:0] a, output [3:0] out); assign out = a[12:9]; endmodule\"}",
    ] {
        let doc = client.request(bad).unwrap();
        assert_eq!(kind(&doc), "error", "{bad}");
    }
    // ...which stays fully usable afterwards.
    let doc = client.request("{\"kind\":\"ping\",\"id\":\"b\"}").unwrap();
    assert_eq!(kind(&doc), "pong");
    assert_eq!(doc.get(&["id"]).and_then(Json::as_str), Some("b"));

    let doc = client.request("{\"kind\":\"stats\",\"id\":\"c\"}").unwrap();
    assert_eq!(kind(&doc), "stats");
    assert_eq!(doc.get(&["id"]).and_then(Json::as_str), Some("c"));
    assert_eq!(doc.get(&["requests", "pings"]).and_then(Json::as_f64), Some(2.0));
    assert_eq!(doc.get(&["requests", "protocol_errors"]).and_then(Json::as_f64), Some(5.0));

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
}

#[test]
fn concurrent_clients_share_one_warm_cache_and_drain_with_zero_lost_jobs() {
    let daemon = Daemon::bind(quick_config()).unwrap();
    let addr = daemon.local_addr();

    // Cold phase: one client synthesizes the verdict into the shared cache.
    let mut cold = DaemonClient::connect(addr).unwrap();
    let doc = cold.request(&map_request(0)).unwrap();
    assert_eq!(kind(&doc), "mapped", "{}", doc.render());
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("success"));
    assert_eq!(doc.get(&["from_cache"]).and_then(Json::as_bool), Some(false));

    // Warm phase: N concurrent clients ask for the same mapping; every verdict
    // must be served from the cache the cold client warmed.
    let clients: u64 = 4;
    let warm: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(addr).unwrap();
                    client.request(&map_request(i + 1)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for doc in &warm {
        assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("success"));
        assert_eq!(
            doc.get(&["from_cache"]).and_then(Json::as_bool),
            Some(true),
            "{}",
            doc.render()
        );
    }

    let stats = cold.request("{\"kind\":\"stats\"}").unwrap();
    assert_eq!(stats.get(&["cache", "served"]).and_then(Json::as_f64), Some(clients as f64));
    assert!(stats.get(&["cache", "hits"]).and_then(Json::as_f64).unwrap() >= clients as f64);
    assert_eq!(stats.get(&["requests", "accepted"]).and_then(Json::as_f64), Some(5.0));

    // Shutdown over the protocol, then join the daemon from the handle.
    let ack = cold.request("{\"kind\":\"shutdown\"}").unwrap();
    assert_eq!(kind(&ack), "shutting_down");
    let summary = daemon.wait();
    assert_eq!(summary.accepted, 5);
    assert_eq!(summary.completed, 5);
    assert_eq!(summary.lost(), 0);
    assert_eq!(summary.cache_served, clients);
}

#[test]
fn admission_bound_rejects_the_overflow_but_loses_nothing() {
    let config = DaemonConfig {
        workers: 1,
        max_pending_per_client: 1,
        map: MapConfig::single_solver().with_timeout(Duration::from_secs(30)),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(config).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    // Pipeline three jobs without reading responses. The handler admits the
    // first and, while it is still running, bounces the rest at the door.
    for id in 0..3 {
        client.send(&map_request(id)).unwrap();
    }
    let mut mapped = 0u64;
    let mut rejected = 0u64;
    for _ in 0..3 {
        let doc = client.recv().unwrap().expect("three responses");
        match kind(&doc) {
            "mapped" => mapped += 1,
            "rejected" => rejected += 1,
            other => panic!("unexpected response kind `{other}`"),
        }
    }
    assert!(mapped >= 1, "the first job must run");
    assert_eq!(mapped + rejected, 3, "every request is answered");

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.accepted, mapped);
    assert_eq!(summary.completed, mapped);
    assert_eq!(summary.rejected, rejected);
    assert_eq!(summary.lost(), 0);
}

#[test]
fn submission_relative_deadlines_expire_stale_jobs() {
    let daemon = Daemon::bind(quick_config()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let doc = client
        .request(
            "{\"kind\":\"map\",\"arch\":\"intel\",\"template\":\"dsp\",\
             \"bench\":\"mul_w8_s0\",\"deadline_s\":0}",
        )
        .unwrap();
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("deadline_expired"));
    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
}

#[test]
fn the_persisted_cache_warm_starts_the_next_daemon() {
    let dir = std::env::temp_dir().join("lr_serve_daemon_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("daemon.lrc");
    let _ = std::fs::remove_file(&path);

    let config = DaemonConfig { persist_path: Some(path.clone()), ..quick_config() };
    let daemon = Daemon::bind(config.clone()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let doc = client.request(&map_request(0)).unwrap();
    assert_eq!(doc.get(&["from_cache"]).and_then(Json::as_bool), Some(false));
    let summary = daemon.shutdown_and_wait();
    assert!(summary.cache_entries >= 1);
    assert!(path.exists(), "shutdown writes a final snapshot");

    // A fresh daemon over the same snapshot serves the verdict warm.
    let daemon = Daemon::bind(config).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let doc = client.request(&map_request(1)).unwrap();
    assert_eq!(doc.get(&["from_cache"]).and_then(Json::as_bool), Some(true), "{}", doc.render());
    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
}

#[test]
fn an_unreadable_cache_file_is_refused_and_left_as_it_was() {
    let dir = std::env::temp_dir().join("lr_serve_daemon_corrupt_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.lrc");
    std::fs::write(&path, "not a lakeroad cache\n").unwrap();

    // Starting on it would end in a snapshot over the file, losing whatever
    // it held, so the daemon does not start.
    let config = DaemonConfig { persist_path: Some(path.clone()), ..quick_config() };
    let err = Daemon::bind(config).err().expect("a corrupt snapshot is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().starts_with("cannot load cache `"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"not a lakeroad cache\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_carry_queue_wait_and_dropped_spans_with_tracing_off() {
    let daemon = Daemon::bind(quick_config()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let doc = client.request(&map_request(0)).unwrap();
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("success"));

    let stats = client.request("{\"kind\":\"stats\"}").unwrap();
    assert_eq!(stats.get(&["trace", "enabled"]).and_then(Json::as_bool), Some(false));
    assert_eq!(stats.get(&["trace", "spans_dropped"]).and_then(Json::as_f64), Some(0.0));
    let waits = stats.get(&["latency", "queue_wait_us", "count"]).and_then(Json::as_f64);
    assert_eq!(waits, Some(1.0));

    let metrics = client.request("{\"kind\":\"metrics\"}").unwrap();
    let text = metrics.get(&["text"]).and_then(Json::as_str).unwrap();
    assert!(text.contains("# TYPE lakeroad_daemon_queue_wait_us histogram\n"), "{text}");
    assert!(text.contains("\nlakeroad_daemon_queue_wait_us_count 1\n"), "{text}");
    assert!(text.contains("\nlakeroad_trace_spans_dropped_total 0\n"), "{text}");
    assert_eq!(daemon.shutdown_and_wait().lost(), 0);
}
