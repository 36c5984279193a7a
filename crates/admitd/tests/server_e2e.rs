//! End-to-end server tests over real sockets: pipelined binary
//! traffic, the HTTP observability endpoints, and clean shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use admitd::wire::{self, Status};
use admitd::{client, scenario, Server, ServerConfig, World, WorldConfig};
use cellsim::SimConfig;
use sweep::ControllerSpec;

struct Running {
    addr: std::net::SocketAddr,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<admitd::ServerSummary>,
    world: Arc<World>,
}

fn start_server(world_config: &WorldConfig, spec: ControllerSpec) -> Running {
    let world = Arc::new(World::new(world_config, &spec.label(), || spec.build()));
    let server = Server::bind(Arc::clone(&world), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    Running {
        addr,
        shutdown,
        handle,
        world,
    }
}

fn stop(running: Running) -> admitd::ServerSummary {
    running
        .shutdown
        .store(true, std::sync::atomic::Ordering::SeqCst);
    running.handle.join().expect("server thread")
}

fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: admitd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn pipelined_replay_gets_one_response_per_frame_in_order() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::FacsPLut);
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 3,
        requests_per_connection: 500,
        sim: SimConfig::paper_default(),
        ..client::BenchConfig::default()
    };
    let report = client::run(&config).expect("bench run");
    assert_eq!(report.requests, 1500);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.accepted + report.rejected + report.overloaded,
        report.requests
    );
    assert!(report.accepted > 0, "some requests must be admitted");
    assert!(report.requests_per_sec > 0.0);
    let summary = stop(running);
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.frames + summary.overloaded, 1500);
}

#[test]
fn metrics_endpoint_lints_clean_and_state_reports_occupancy() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::FacsP);
    // Admit some traffic first so the exposition has non-zero series.
    let config = client::BenchConfig {
        addr: running.addr.to_string(),
        connections: 1,
        requests_per_connection: 200,
        sim: SimConfig::paper_default(),
        ..client::BenchConfig::default()
    };
    client::run(&config).expect("bench run");

    let (head, body) = http_get(running.addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    telemetry::lint_prometheus(&body).expect("valid Prometheus exposition");
    assert!(body.contains("admitd_frames_total"), "{body}");
    assert!(body.contains("admitd_expired_releases_total"), "{body}");

    let (head, body) = http_get(running.addr, "/state");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let state: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(state["cells"], 1u64);
    assert_eq!(
        state["occupied_total"].as_u64(),
        running.world.occupied(0).map(u64::from)
    );

    let (head, _) = http_get(running.addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let (head, _) = http_get(running.addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    stop(running);
}

#[test]
fn oversized_length_prefix_drops_the_connection() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::AlwaysAccept);
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&wire::MAGIC).expect("magic");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("bogus length");
    let mut buf = [0u8; 16];
    // The server must close; the read drains to EOF rather than hang.
    let n = stream.read(&mut buf).expect("read EOF");
    assert_eq!(n, 0, "connection closed without a response");
    stop(running);
}

#[test]
fn every_frame_of_a_large_single_write_is_answered() {
    let running = start_server(&WorldConfig::paper_default(), ControllerSpec::AlwaysAccept);
    let config = SimConfig::paper_default();
    let frames = scenario::batch_frames(&config, 300, 0);
    let mut buf = Vec::new();
    buf.extend_from_slice(&wire::MAGIC);
    for frame in &frames {
        wire::encode_request(frame, &mut buf);
    }
    let mut stream = TcpStream::connect(running.addr).expect("connect");
    stream.write_all(&buf).expect("one large write");

    let mut seen = Vec::new();
    let mut inbuf = Vec::new();
    let mut chunk = [0u8; 8192];
    while seen.len() < frames.len() {
        while let Some((start, end)) = wire::next_frame(&inbuf).expect("well-formed responses") {
            let response = wire::decode_response(&inbuf[start..end]).expect("decode");
            inbuf.drain(..end);
            seen.push(response);
        }
        if seen.len() == frames.len() {
            break;
        }
        let n = stream.read(&mut chunk).expect("read responses");
        assert_ne!(n, 0, "server closed early");
        inbuf.extend_from_slice(&chunk[..n]);
    }
    // Exactly one response per frame, echoing ids in request order;
    // any mix of decided and overload statuses is legal, errors not.
    for (frame, response) in frames.iter().zip(&seen) {
        assert_eq!(frame.id(), response.id);
        assert_ne!(response.status, Status::Error);
    }
    stop(running);
}
